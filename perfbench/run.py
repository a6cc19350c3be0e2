"""The metaphish benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload standin-pipeline --seed 1 --seconds 30 --trace 0

Run from a checkout: the program is imported from ``src/`` and never
installed.  Every input is generated from ``--seed`` under ``.bench_work/``.

``--trace 0`` times ``metaphish train`` and ``metaphish revise`` as fresh
processes, the way a user runs them.  A round runs each command until it
has taken ``MIN_PHASE_S`` (at least once); rounds repeat for about
``--seconds`` (at least two), with a block of set-ups before each round and
after the last.  It reports the median wall time of each command over all
its executions, the median set-up time, and peak RSS from ``wait4``.
``--trace 1`` runs the same commands in this process five times, plain and
with every layer boundary wrapped in a span (see ``spans.py``) in turn.  It
reports the per-layer metrics of the traced passes and the tracing overhead
against the plain passes between them.

Every round is checked by ``oracle.py``; for the default seed the
artifacts must also match the digests in ``reference.json``, recorded from
the pipeline before any optimisation.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "synthetic_200.csv"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

NPROC = len(os.sched_getaffinity(0))
# Every command runs on one CPU, the highest this process may use, with
# single-threaded BLAS: on a shared 2-vCPU host a CPU-bound loop pinned there
# varied about half as much as an unpinned one.
PINNED_CPU = max(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
if __name__ == "__main__":  # must happen before numpy is first imported
    os.sched_setaffinity(0, {PINNED_CPU})
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

import oracle  # noqa: E402
import spans  # noqa: E402
import standin  # noqa: E402

DEFAULT_SEED = 1
# one block of set-ups: at least SETUP_REPS, and repeated until they total
# MIN_SETUP_S, so a set-up of a few milliseconds is timed many times
SETUP_REPS = 2
MIN_SETUP_S = 0.2
MIN_ROUNDS = 2
MIN_PHASE_S = 5.0
COMMAND_TIMEOUT_S = 150
PASSES = ("plain", "traced", "plain", "traced", "plain")  # of the traced run


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int | None  # stand-in rows; None = the committed 200-row fixture
    page_bytes: int | None  # median size of the one HTML snapshot per row
    train_flags: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("standin-pipeline", 2000, 20_000, ("--best-config",)),
        Workload("grid-fixture", None, None, ("--grid-search", "--folds", "2")),
        Workload("revision-bulk", 10_050, None, ("--best-config", "--test-fraction", "0.995")),
    )
}


@dataclass(frozen=True)
class Inputs:
    dataset: Path
    pages: Path | None
    labels: object  # numpy int array, 1 = phishing, indexed by row id
    meta: object  # numpy bool array, indexed by row id

    def commands(self, wl: Workload, out: Path) -> list[list[str]]:
        common = ["--dataset", str(self.dataset), "--out", str(out)]
        revise = ["revise", *common]
        if self.pages:
            revise += ["--snapshot-dir", str(self.pages)]
        return [["train", *common, *wl.train_flags], revise]


def setup(wl: Workload, seed: int, where: Path) -> tuple[Inputs, float]:
    """Generate the workload's inputs from the seed into the empty directory
    ``where`` and read them once.

    Returns the inputs and the set-up time: generating every file in memory
    plus reading the written files back.  Writing the files is left out:
    creating a directory of small files on a shared disk took from 0.3 s to
    1.5 s for the same bytes, which would hide any change in generation.
    """
    start = time.perf_counter()
    if wl.rows is None:
        dataset = where / FIXTURE.name
        csv_data = FIXTURE.read_bytes()
        labels, meta = standin.read_fixture(FIXTURE)
    else:
        data = standin.make_standin(wl.rows, seed)
        dataset = where / "standin.csv"
        csv_data = standin.csv_bytes(data)
        labels, meta = data.y, data.meta
    page_data = standin.render_pages(meta, wl.page_bytes, seed) if wl.page_bytes else []
    generate_s = time.perf_counter() - start

    where.mkdir(parents=True)
    dataset.write_bytes(csv_data)
    pages = None
    if page_data:
        pages = where / "pages"
        standin.write_pages(pages, page_data)
    start = time.perf_counter()
    for path in [dataset, *(sorted(pages.iterdir()) if pages else [])]:
        path.read_bytes()  # warm the page cache
    return Inputs(dataset, pages, labels, meta), generate_s + time.perf_counter() - start


def run_command(argv: list[str], log) -> tuple[float, int, int]:
    """Run ``python -m metaphish argv`` as a fresh process.

    Returns (wall seconds, peak RSS in bytes, exit code); a process that
    outlives the timeout is killed and reported with exit code -9.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "metaphish", *argv],
                            stdout=log, stderr=log, env=env, cwd=ROOT)
    reaped = {}

    def reap():
        reaped["status"] = os.wait4(proc.pid, 0)
        reaped["end"] = time.perf_counter()

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(COMMAND_TIMEOUT_S)
    if waiter.is_alive():
        proc.kill()
        waiter.join()
    _, status, usage = reaped["status"]
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped by wait4
    return reaped["end"] - start, usage.ru_maxrss * 1024, proc.returncode


@dataclass
class Round:
    """One train phase then one revise phase into a fresh output directory."""

    seconds: dict[str, list[float]]  # command -> wall time of each execution
    peak_rss: int = 0
    artifact_bytes: int = 0
    digests: dict | None = None
    problems: list[str] | None = None


def check_round(wl: Workload, inp: Inputs, out: Path) -> list[str]:
    problems = oracle.check_outputs(out, inp.labels, inp.meta)
    source = "grid-search" if "--grid-search" in wl.train_flags else "best-config"
    return problems + oracle.check_cv_summary(out, source)


def timed_round(wl: Workload, inp: Inputs, out: Path) -> Round:
    """Each command runs until it has taken ``MIN_PHASE_S`` (at least once),
    so a short command gets several samples per round."""
    shutil.rmtree(out, ignore_errors=True)
    rnd = Round({})
    with open(out.parent / "commands.log", "w") as log:
        for argv in inp.commands(wl, out):
            samples = rnd.seconds.setdefault(argv[0], [])
            while not samples or sum(samples) < MIN_PHASE_S:
                os.sync()  # write back the previous command's output first
                seconds, rss, code = run_command(argv, log)
                samples.append(seconds)
                rnd.peak_rss = max(rnd.peak_rss, rss)
                if code != 0:
                    rnd.problems = [f"metaphish {argv[0]} exited with {code}, see {log.name}"]
                    return rnd
    rnd.artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
    rnd.digests = oracle.digests(out)
    rnd.problems = check_round(wl, inp, out)
    return rnd


def reference_problems(wl: Workload, seed: int, digests: dict) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[wl.name]
    return [f"{name} digest differs from the reference for seed {seed}"
            for name in sorted(want) if digests.get(name) != want[name]]


def setup_block(wl: Workload, seed: int, work: Path, setups: list[float]) -> Inputs:
    """Set up at least ``SETUP_REPS`` times and for ``MIN_SETUP_S``; append
    each set-up time to ``setups`` and return the inputs of the last."""
    block: list[float] = []
    while len(block) < SETUP_REPS or sum(block) < MIN_SETUP_S:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        os.sync()  # each set-up starts with nothing left to write back
        inp, took = setup(wl, seed, work / "inputs")
        block.append(took)
    setups += block
    return inp


def timed_run(wl: Workload, seed: int, seconds: float, work: Path):
    """Time rounds for about ``seconds``, with a set-up block before each
    round and one after the last.

    The set-ups are spread over the run, like the commands, because on a
    shared 2-vCPU host the speed of a CPU drifts over tens of seconds: the
    medians of back-to-back 3 s windows of one CPU-bound loop spread by 0.16.
    """
    setups: list[float] = []
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or _another_round_fits(start, len(rounds), seconds):
        inp = setup_block(wl, seed, work, setups)
        rounds.append(timed_round(wl, inp, work / "out"))
    setup_block(wl, seed, work, setups)
    good = [r for r in rounds if not r.problems]
    if good:
        wrong = reference_problems(wl, seed, good[0].digests)
        for r in good:
            if wrong:
                r.problems = wrong
            elif r.digests != good[0].digests:
                r.problems = ["artifacts differ from the first round's"]
        good = [r for r in rounds if not r.problems]
    failed = len(rounds) - len(good)
    problems = [p for r in rounds for p in (r.problems or [])]
    if not good:
        return None, len(rounds), failed, problems, {}
    samples = {cmd: [t for r in good for t in r.seconds[cmd]] for cmd in ("train", "revise")}
    metrics = {
        "train_s": (statistics.median(samples["train"]), "s"),
        "revise_s": (statistics.median(samples["revise"]), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss for r in good) / 1e6, "MB"),
        "artifacts_mb": (statistics.median(r.artifact_bytes for r in good) / 1e6, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {"rounds": len(rounds), "setups": len(setups),
              "setup_s_range": [round(min(setups), 4), round(max(setups), 4)]}
    detail.update({cmd: [round(t, 3) for t in ts] for cmd, ts in samples.items()})
    return metrics, len(rounds), failed, problems, detail


def _another_round_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, of the mean length so far, ends before
    ``seconds`` plus half a round."""
    elapsed = time.perf_counter() - start
    return elapsed + (elapsed / done) / 2 < seconds


def in_process_pass(wl: Workload, inp: Inputs, out: Path, log, tracer=None) -> list[float]:
    """Run the workload's commands through ``metaphish.cli.main`` in this process."""
    from metaphish import cli

    shutil.rmtree(out, ignore_errors=True)
    seconds = []
    for argv in inp.commands(wl, out):
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        seconds.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"metaphish {argv[0]} exited with {code}, see {log.name}")
    return seconds


def same_files(a: Path, b: Path) -> bool:
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in names)


def traced_run(wl: Workload, seed: int, work: Path):
    """In-process passes, plain and traced in turn (``PASSES``); the
    per-layer metrics are medians over the traced passes.

    The program is imported before the first pass.  The tracing overhead is
    the median traced pass time minus the median plain one, so neither
    first-call costs nor a drift of the host count as overhead; the host's
    noise can still make it negative.  ``trace.span_cost_s`` is the tracer's
    own cost: the spans times the measured cost of one spanned call.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import metaphish.cli  # noqa: F401  (import costs stay out of every pass)

    shutil.rmtree(work / "inputs", ignore_errors=True)
    inp, _ = setup(wl, seed, work / "inputs")
    os.sync()
    # every pass writes to the same --out, as the artifacts name their paths
    out = work / "out"
    kept = [work / f"out_{i}_{kind}" for i, kind in enumerate(PASSES)]
    seconds: dict[str, list[float]] = {"plain": [], "traced": []}
    tracers, values = [], []
    with open(work / "commands.log", "w") as log:
        for i, kind in enumerate(PASSES):
            tracer = None
            if kind == "traced":
                tracer = spans.Tracer(f"{wl.name}/{seed}/pass{i}")
                spans.install_program_spans(tracer)
            try:
                start = time.perf_counter()
                seconds[kind].append(sum(in_process_pass(wl, inp, out, log, tracer)))
                if tracer:  # counts read files under --out, so before it moves
                    values.append(spans.layer_metrics(tracer.spans, tracer.notes,
                                                      start, time.perf_counter()))
                    tracers.append(tracer)
                shutil.rmtree(kept[i], ignore_errors=True)
                out.rename(kept[i])
            except RuntimeError as exc:
                return None, i + 1, 1, [str(exc)], {}
            finally:
                if tracer:
                    tracer.uninstall()
    spans.dump(work / "spans.json", tracers)

    problems, failed = [], 0
    for i, directory in enumerate(kept):
        found = check_round(wl, inp, directory)
        if i == 0:
            found += reference_problems(wl, seed, oracle.digests(directory))
        elif not same_files(directory, kept[0]):
            found.append(f"pass {i} ({PASSES[i]}) and pass 0 wrote different artifacts")
        failed += bool(found)
        problems += found

    m = {name: statistics.median(v[name] for v in values) for name in values[0]}
    plain, traced = (statistics.median(seconds[kind]) for kind in ("plain", "traced"))
    m["trace.overhead_s"] = traced - plain
    m["trace.overhead_share"] = m["trace.overhead_s"] / plain
    m["trace.span_cost_s"] = m["trace.spans"] * spans.spanned_call_cost()
    metrics = {name: (m[name], unit) for name, unit in spans.LAYER_METRICS}
    detail = {kind: [round(t, 3) for t in ts] for kind, ts in seconds.items()}
    return metrics, len(PASSES), failed, problems, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "metaphish" / "cli.py", FIXTURE) if not p.is_file()]
    if missing:
        print(f"error: not a metaphish checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, attempted, failed, problems, detail = traced_run(wl, args.seed, work)
    else:
        metrics, attempted, failed, problems, detail = timed_run(
            wl, args.seed, args.seconds, work)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: every repetition failed", file=sys.stderr)
        return 1

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  nproc {NPROC}  "
          f"cpu {PINNED_CPU}  blas_threads {BLAS_THREADS}  loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}  "
          f"python {sys.version.split()[0]}")
    print(f"  {json.dumps(detail)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6f} {unit}")
    print(f"  {'error_rate':<28} {failed / attempted:>14.6f} ({failed} of {attempted} failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
