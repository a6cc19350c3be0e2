"""Span recorder for the traced run, and the per-layer arithmetic over spans.

The tracer wraps the program's public callables on the names their callers
look up (module attributes and estimator methods), so the program itself is
not edited.  Each call becomes a span: name, start, end, parent span and run
id.  Spans stay in memory until :func:`dump` writes them out.

Counts are read after the traced pass from the objects the wrappers kept
(``n_iter_``, ``support_x_``, ``root_``, ``GroundProgram.stats``,
``AnswerSet.stats``, ...), so no counting work lands inside a timed span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ())) for s in spans}


class Tracer:
    """Records spans for one run; ``patch`` wraps a callable, ``uninstall``
    restores every wrapped callable."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.notes: list[tuple[int, str, object]] = []  # (span id, kind, object)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def patch(self, owner, attr: str, name, note: str | None = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.

        ``name`` is a span name or a function of the parent span's name.
        With ``note``, the call's ``(args, result)`` is kept for counting.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(self.parent_name()) if callable(name) else name
            span = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if note:
                self.notes.append((span.id, note, (args, result)))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def dump(path: Path, tracers: list[Tracer]) -> None:
    """Write the spans of every tracer to ``path`` as one JSON list."""
    rows = [asdict(s) for tracer in tracers for s in tracer.spans]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def spanned_call_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a span adds to one call: spanned minus plain calls of a
    function that does nothing, median over ``repeats`` pairs."""

    class Probe:
        @staticmethod
        def nothing(*args):
            return None

    def time_calls() -> float:
        fn = Probe.nothing
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    costs = []
    for _ in range(repeats):
        plain = time_calls()
        tracer = Tracer("calibration")
        # a named-by-parent span with a note: the dearest kind the program gets
        tracer.patch(Probe, "nothing", lambda parent: "probe", "probe")
        try:
            costs.append((time_calls() - plain) / calls)
        finally:
            tracer.uninstall()
    return max(statistics.median(costs), 0.0)


def install_program_spans(tracer: Tracer) -> None:
    """Wrap every public layer boundary of the metaphish pipeline."""
    from metaphish import cli, kb, nmr, revision
    from metaphish.classifiers import models
    from metaphish.classifiers.forest import RandomForest
    from metaphish.classifiers.knn import KNearestNeighbors
    from metaphish.classifiers.svm import KernelSVM
    from metaphish.classifiers.tree import DecisionTree

    for attr, name, note in (
        ("load_dataset", "dataset.load", "rows"),
        ("make_split", "dataset.split", None),
        ("fit_scaler", "dataset.scale", None),
        ("load_meta_from_snapshots", "dataset.snapshot", "snapshot"),
        ("train", "models.train", None),
        ("save_model", "models.save", "model_file"),
        ("load_model", "models.load", None),
        ("generate_initial_beliefs", "models.predict", None),
        ("grid_search", "models.grid", None),
    ):
        tracer.patch(cli, attr, name, note)
    tracer.patch(models, "fit_scaler", "dataset.scale")

    def in_forest(op):
        return lambda parent: f"forest.tree_{op}" if parent == f"forest.{op}" else f"tree.{op}"

    for cls, layer in ((RandomForest, "forest"), (KernelSVM, "svm"), (KNearestNeighbors, "knn")):
        tracer.patch(cls, "fit", f"{layer}.fit", "estimator")
        tracer.patch(cls, "predict", f"{layer}.predict", "estimator")
    tracer.patch(DecisionTree, "fit", in_forest("fit"), "estimator")
    tracer.patch(DecisionTree, "predict", in_forest("predict"), None)

    tracer.patch(kb, "encode", "kb.encode", "facts")
    tracer.patch(kb, "serialize", "kb.serialize", "facts_bytes")
    tracer.patch(nmr, "ground", "nmr.ground", "ground")
    tracer.patch(nmr, "solve", "nmr.solve", "solve")
    tracer.patch(revision, "apply_revision", "revision.apply", "revision")
    for attr in ("build_report", "report_to_kv", "format_kv", "render_report_text"):
        tracer.patch(revision, attr, "revision.report")


def _tree_shape(root) -> tuple[int, int]:
    """(node count, depth) of a fitted tree, walked without recursion."""
    nodes = depth = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if not node.is_leaf:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return nodes, depth


# (metric, unit) in reporting order; BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("dataset.load_s", "s"), ("dataset.rows", "count"), ("dataset.split_scale_s", "s"),
    ("dataset.snapshot_s", "s"), ("dataset.snapshot_mb", "MB"), ("dataset.pages_with_meta", "count"),
    ("forest.fit_s", "s"), ("forest.self_s", "s"), ("forest.tree_fits", "count"),
    ("forest.nodes", "count"), ("forest.predict_s", "s"),
    ("tree.fit_s", "s"), ("tree.predict_s", "s"), ("tree.nodes", "count"), ("tree.depth", "count"),
    ("svm.fit_s", "s"), ("svm.predict_s", "s"), ("svm.smo_iters", "count"),
    ("svm.support_vectors", "count"),
    ("knn.predict_s", "s"), ("knn.train_rows", "count"),
    ("models.save_s", "s"), ("models.load_s", "s"), ("models.file_mb", "MB"),
    ("models.train_self_s", "s"), ("models.predict_self_s", "s"),
    ("models.grid_self_s", "s"), ("models.grid_fits", "count"),
    ("kb.encode_s", "s"), ("kb.encode_calls", "count"), ("kb.facts", "count"),
    ("kb.serialize_s", "s"), ("kb.facts_bytes", "count"),
    ("nmr.ground_s", "s"), ("nmr.solve_s", "s"), ("nmr.ground_rules", "count"),
    ("nmr.ground_firings", "count"), ("nmr.solve_firings", "count"), ("nmr.atoms", "count"),
    ("nmr.solve_useful", "ratio"),
    ("revision.apply_self_s", "s"), ("revision.report_s", "s"), ("revision.beliefs", "count"),
    ("revision.revised", "count"),
    ("cli.train_self_s", "s"), ("cli.revise_self_s", "s"),
    ("trace.spans", "count"), ("trace.uncovered_share", "ratio"),
    ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"), ("trace.span_cost_s", "s"),
)


def layer_metrics(spans: list[Span], notes, pass_start: float, pass_end: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the ``trace.overhead*`` and
    ``trace.span_cost_s`` metrics are added by the caller)."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    m = {name: 0 for name, _ in LAYER_METRICS}

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def self_of(*names):
        return sum(own[s.id] for s in spans if s.name in names)

    m["dataset.load_s"] = total("dataset.load")
    m["dataset.split_scale_s"] = total("dataset.split", "dataset.scale")
    m["dataset.snapshot_s"] = total("dataset.snapshot")
    m["forest.fit_s"] = total("forest.fit")
    m["forest.self_s"] = self_of("forest.fit")
    m["forest.tree_fits"] = sum(s.name == "forest.tree_fit" for s in spans)
    m["forest.predict_s"] = total("forest.predict")
    m["tree.fit_s"] = total("tree.fit")
    m["tree.predict_s"] = total("tree.predict")
    m["svm.fit_s"] = total("svm.fit")
    m["svm.predict_s"] = total("svm.predict")
    m["knn.predict_s"] = total("knn.predict")
    m["models.save_s"] = total("models.save")
    m["models.load_s"] = total("models.load")
    m["models.train_self_s"] = self_of("models.train")
    m["models.predict_self_s"] = self_of("models.predict")
    m["models.grid_self_s"] = self_of("models.grid")
    m["models.grid_fits"] = sum(
        s.parent is not None and by_id[s.parent].name == "models.grid" and s.name.endswith(".fit")
        for s in spans)
    m["kb.encode_s"] = total("kb.encode")
    m["kb.encode_calls"] = sum(s.name == "kb.encode" for s in spans)
    m["kb.serialize_s"] = total("kb.serialize")
    m["nmr.ground_s"] = total("nmr.ground")
    m["nmr.solve_s"] = total("nmr.solve")
    m["revision.apply_self_s"] = self_of("revision.apply")
    m["revision.report_s"] = total("revision.report")
    m["cli.train_self_s"] = self_of("cli.train")
    m["cli.revise_self_s"] = self_of("cli.revise")

    for span_id, kind, (args, result) in notes:
        name = by_id[span_id].name
        if kind == "rows":
            m["dataset.rows"] += len(result)
        elif kind == "snapshot":
            directory, ids = Path(args[0]), args[1]
            m["dataset.snapshot_mb"] += sum(
                (directory / f"{i}.html").stat().st_size
                for i in ids if (directory / f"{i}.html").is_file()) / 1e6
            m["dataset.pages_with_meta"] += sum(result.values())
        elif kind == "model_file":
            m["models.file_mb"] += Path(args[1]).stat().st_size / 1e6
        elif kind == "estimator":
            est = args[0]
            if name == "forest.fit":
                m["forest.nodes"] += sum(_tree_shape(t.root_)[0] for t in est.trees_)
            elif name == "tree.fit":
                nodes, depth = _tree_shape(est.root_)
                m["tree.nodes"] += nodes
                m["tree.depth"] = max(m["tree.depth"], depth)
            elif name == "svm.fit":
                m["svm.smo_iters"] += est.n_iter_
                m["svm.support_vectors"] += len(est.support_x_)
            elif name == "knn.predict":
                m["knn.train_rows"] += len(est.X_)
        elif kind == "facts":
            m["kb.facts"] = max(m["kb.facts"], len(result))
        elif kind == "facts_bytes":
            m["kb.facts_bytes"] += result
        elif kind == "ground":
            m["nmr.ground_rules"] += len(result.rules)
            m["nmr.ground_firings"] += result.stats.firings
        elif kind == "solve":
            m["nmr.solve_firings"] += result.stats.firings
            m["nmr.atoms"] += result.stats.atoms
        elif kind == "revision":
            m["revision.beliefs"] += len(args[0])
            m["revision.revised"] += sum(f.revised for f in result)
    if m["nmr.solve_firings"]:
        m["nmr.solve_useful"] = m["nmr.atoms"] / m["nmr.solve_firings"]

    # share of the pass that no layer below the CLI covers: argument parsing,
    # the CLI's own file writing, and anything between the commands
    wall = pass_end - pass_start
    layers = [(s.start, s.end) for s in spans
              if s.parent is not None and by_id[s.parent].name.startswith("cli.")]
    m["trace.spans"] = len(spans)
    m["trace.uncovered_share"] = (wall - covered(layers)) / wall if wall > 0 else 0.0
    return m
