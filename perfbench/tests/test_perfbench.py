"""Tests of the benchmark itself: inputs, output checks, span arithmetic.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import standin  # noqa: E402

# the committed fixture with best configurations: the quickest full pipeline
TINY = run.Workload("fixture-best", None, 20_000, ("--best-config",))
SEED = 7  # not the default seed, so no reference digests apply


def _input_bytes(directory: Path, seed: int) -> dict[str, bytes]:
    data = standin.make_standin(40, seed)
    directory.mkdir()
    (directory / "standin.csv").write_bytes(standin.csv_bytes(data))
    standin.write_pages(directory / "pages", standin.render_pages(data.meta, 20_000, seed))
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    first = _input_bytes(tmp_path / "a", 3)
    assert first == _input_bytes(tmp_path / "b", 3)
    other = _input_bytes(tmp_path / "c", 4)
    assert first.keys() == other.keys()
    assert first["standin.csv"] != other["standin.csv"]
    assert first["pages/0.html"] != other["pages/0.html"]


def test_pages_agree_with_meta_column(tmp_path):
    from metaphish.dataset import load_meta_from_snapshots

    data = standin.make_standin(200, 5)
    standin.write_pages(tmp_path, standin.render_pages(data.meta, 20_000, 5))
    flags = load_meta_from_snapshots(tmp_path, range(200))
    assert [flags[i] for i in range(200)] == [bool(m) for m in data.meta]


def test_self_time_on_hand_built_tree():
    tree = [
        spans.Span(0, "cli.train", 0.0, 10.0, None, "r"),
        spans.Span(1, "forest.fit", 1.0, 4.0, 0, "r"),
        spans.Span(2, "forest.tree_fit", 2.0, 3.0, 1, "r"),
        spans.Span(3, "forest.tree_fit", 3.0, 3.5, 1, "r"),
        spans.Span(4, "svm.fit", 3.5, 6.0, 0, "r"),  # overlaps forest.fit's end
    ]
    assert spans.self_times(tree) == pytest.approx({0: 5.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 2.5})
    m = spans.layer_metrics(tree, [], pass_start=-2.0, pass_end=10.0)
    assert m["forest.fit_s"] == pytest.approx(3.0)
    assert m["forest.self_s"] == pytest.approx(1.5)
    assert m["forest.tree_fits"] == 2
    assert m["cli.train_self_s"] == pytest.approx(5.0)
    assert m["trace.uncovered_share"] == pytest.approx(7.0 / 12.0)  # 12 s pass, 5 s in layers


def test_flipped_verdict_is_a_failure(tmp_path, monkeypatch):
    """Corrupting one final verdict of the second repetition fails that repetition."""
    original = run.run_command
    calls = []

    def corrupting(argv, log):
        result = original(argv, log)
        calls.append(argv[0])
        if calls.count("revise") == 2:
            out = Path(argv[argv.index("--out") + 1])
            path = out / "final_beliefs.csv"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            row = lines[1].split(",")
            row[3] = "phishing" if row[3] == "benign" else "benign"
            lines[1] = ",".join(row)
            path.write_text("".join(lines), encoding="utf-8")
        return result

    monkeypatch.setattr(run, "run_command", corrupting)
    monkeypatch.setattr(run, "MIN_PHASE_S", 0.0)  # one execution per command and round
    metrics, attempted, failed, problems, _ = run.timed_run(TINY, SEED, 0.0, tmp_path)
    assert (attempted, failed) == (2, 1)
    assert any("expected" in p or "revised flag" in p for p in problems)
    assert metrics["train_s"][0] > 0


def test_traced_and_plain_runs_write_identical_artifacts(tmp_path):
    metrics, attempted, failed, problems, _ = run.traced_run(TINY, SEED, tmp_path)
    assert (attempted, failed, problems) == (len(run.PASSES), 0, [])
    passes = [tmp_path / f"out_{i}_{kind}" for i, kind in enumerate(run.PASSES)]
    first = passes[0]
    names = sorted(p.name for p in first.iterdir())
    for other in passes[1:]:
        assert names == sorted(p.name for p in other.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (other / name).read_bytes(), (other, name)
    assert oracle.check_outputs(first, *standin.read_fixture(run.FIXTURE)) == []
    assert metrics["forest.tree_fits"][0] == 100
    assert metrics["revision.beliefs"][0] == 160
    assert metrics["dataset.snapshot_s"][0] > 0
    assert metrics["trace.span_cost_s"][0] > 0
    assert set(metrics) == {name for name, _ in spans.LAYER_METRICS}
