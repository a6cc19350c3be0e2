"""Shared fixtures-in-code and independent oracles for the test suite."""

from __future__ import annotations

import csv
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping
from html.parser import HTMLParser
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from metaphish import kb, nmr, revision
from metaphish.classifiers import (
    KIND_ORDER,
    Beliefs,
    ClassifierKind,
    RandomForest,
    effective_candidates,
    entropy,
    gini,
)
from metaphish.dataset import Dataset, fit_scaler
from metaphish.nmr import (
    AnswerSet,
    Atom,
    EvalStats,
    GroundAtom,
    GroundRule,
    Program,
    Rule,
    StratificationError,
    Term,
    Variable,
    check_arities,
)

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_CSV = DATA_DIR / "synthetic_200.csv"

BENCHMARK_ENV = "METAPHISH_DATASET"


def benchmark_csv() -> Path | None:
    """Path to the full benchmark CSV, if available in this environment."""
    candidates = []
    env = os.environ.get(BENCHMARK_ENV)
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "dataset_phishing.csv")
    for path in candidates:
        if path.is_file():
            return path
    return None


def edit_row(edit, row=5):
    """A dataset edit: ``edit`` applied to the list of cells of data row ``row``."""
    def apply(text):
        lines = text.split("\n")
        lines[row] = ",".join(edit(lines[row].split(",")))
        return "\n".join(lines)
    return apply


def set_cell(column, value):
    def edit(cells):
        cells[column] = value if not callable(value) else value(cells[column])
        return cells
    return edit


def make_records(n: int, d: int = 87, seed: int = 0, shift: float = 0.0) -> Dataset:
    """n rows with alternating labels; optional class shift on feature 0."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, size=(n, d))
    y = np.arange(n) % 2
    X[:, 0] += np.where(y == 1, shift, -shift)
    return Dataset(X, y)


def separable_set(n: int = 500, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """A linearly separable two-class point cloud in the plane."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(0.0, 0.6, size=(half, 2)) + [-2.0, -2.0]
    b = rng.normal(0.0, 0.6, size=(n - half, 2)) + [2.0, 2.0]
    X = np.vstack([a, b])
    y = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    order = rng.permutation(n)
    return X[order], y[order]


def per_feature_best_split(X, y, impurity, max_features=None, rng=None):
    """The tree's split search as one pass per candidate feature (the oracle
    for ``DecisionTree._best_cut``): the best impurity decrease above 0,
    ties to the lower feature index, then the lower threshold.  Draws the
    candidate features from ``rng`` exactly as the tree does."""
    n, d = X.shape
    if max_features is None or max_features >= d:
        features = range(d)
    else:
        features = sorted(int(j) for j in rng.choice(d, size=max_features, replace=False))
    total_pos = int(y.sum())
    parent = float(impurity(total_pos / n))
    best_gain = 0.0
    best = None
    for j in features:
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cum_pos = np.cumsum(y[order])
        cut = np.nonzero(sv[:-1] < sv[1:])[0]  # boundaries between distinct values
        if len(cut) == 0:
            continue
        n_left = cut + 1
        n_right = n - n_left
        pos_left = cum_pos[cut]
        p_left = pos_left / n_left
        p_right = (total_pos - pos_left) / n_right
        child = (n_left * impurity(p_left) + n_right * impurity(p_right)) / n
        gains = parent - child
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            below, above = float(sv[cut[k]]), float(sv[cut[k] + 1])
            mid = (below + above) / 2.0
            best = (j, mid if mid < above else below)  # a midpoint rounded up parts nothing
    return best


def grow_tree(X, y, criterion="gini", max_depth=None, min_samples_split=2,
              max_features=None, rng=None) -> dict:
    """The tree's grower before the rank table (the oracle for
    ``DecisionTree.fit``): a depth-first stack of row-index arrays, each
    node's rows copied out of ``X`` and searched by
    ``per_feature_best_split``.  Returns the ``to_dict()`` of the tree, the
    nested tree it grows passed through ``flatten_tree``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    impurity = {"gini": gini, "entropy": entropy}[criterion]
    root: dict = {}
    stack = [(np.arange(len(y)), 0, root)]
    while stack:
        idx, depth, node = stack.pop()
        y_node = y[idx]
        n = len(idx)
        n_pos = int(y_node.sum())
        at_depth_limit = max_depth is not None and depth >= max_depth
        split = None
        if not (n_pos in (0, n) or at_depth_limit or n < min_samples_split):
            split = per_feature_best_split(X[idx], y_node, impurity, max_features, rng)
        if split is None:
            node["label"] = 1 if 2 * n_pos > n else 0  # ties go to class 0
            continue
        feature, threshold = split
        node.update(feature=feature, threshold=threshold, left={}, right={})
        left_mask = X[idx, feature] <= threshold
        stack.append((idx[left_mask], depth + 1, node["left"]))
        stack.append((idx[~left_mask], depth + 1, node["right"]))
    return flatten_tree(root)


def flatten_tree(root: dict) -> dict:
    """A nested tree (``{"label"}`` leaves, ``{"feature", "threshold", "left",
    "right"}`` splits) as the three pre-order sequences of
    ``DecisionTree.to_dict()``, walked without recursion."""
    flat = {"feature": [], "threshold": [], "label": []}
    stack = [root]
    while stack:
        node = stack.pop()
        if "feature" in node:
            flat["feature"].append(node["feature"])
            flat["threshold"].append(node["threshold"])
            stack += (node["right"], node["left"])
        else:
            flat["feature"].append(-1)
            flat["label"].append(node["label"])
    return flat


def grow_forest(X, y, n_estimators, criterion="gini", max_depth=None, seed=0) -> dict:
    """``RandomForest.to_dict()`` grown by ``grow_tree`` on copied bootstrap
    rows, each tree drawing its sample and features from ``(seed, t)``."""
    n, d = X.shape
    max_features = min(d, math.ceil(math.sqrt(d)))
    trees = []
    for t in range(n_estimators):
        rng = np.random.default_rng([seed, t])
        sample = rng.integers(0, n, size=n)
        trees.append(grow_tree(X[sample], y[sample], criterion, max_depth,
                               max_features=max_features, rng=rng))
    return {"trees": trees}


def masked_entropy(p):
    """Binary entropy as a masked sum over both sides (the oracle for
    ``tree.entropy``): a side of 0 adds the literal 0.0, never a log."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros(p.shape)
    for side in (p, 1.0 - p):
        mask = side > 0
        out = out - np.where(mask, side * np.log2(side, where=mask, out=np.ones(p.shape)), 0.0)
    return out


def fit_every_forest(grid, data: Dataset, folds, seed: int = 42):
    """RF grid search that fits every candidate afresh on every fold (the
    oracle for ``grid_search``'s shared forests).  Returns the
    ``(params, mean fold accuracy)`` pairs in enumeration order and the
    first best params."""
    folds = [frozenset(f) for f in folds]
    scores = []
    for params in effective_candidates(ClassifierKind.RF, grid):
        accs = []
        for holdout in folds:
            fit_ids = frozenset().union(*(f for f in folds if f is not holdout))
            stats = fit_scaler(data, fit_ids)
            fit_rows, val_rows = data.rows(fit_ids), data.rows(holdout)
            forest = RandomForest(seed=seed, **params)
            forest.fit(stats.scale(data.X[fit_rows]), data.y[fit_rows])
            predicted = forest.predict(stats.scale(data.X[val_rows]))
            accs.append(float((predicted == data.y[val_rows]).mean()))
        scores.append((params, sum(accs) / len(accs)))
    best = max(scores, key=lambda pair: pair[1])  # first of the maxima
    return tuple(scores), best[0]


_CHUNK_ELEMENTS = 20_000_000  # cap on the broadcast buffer (rows * train * dims)


def broadcast_distances(Q, X, metric: str) -> np.ndarray:
    """Distances from every row of ``Q`` to every row of ``X`` through one 3-D
    difference reduced over its last axis (the oracle for the distances that
    ``KNearestNeighbors._distances`` keeps after its float32 filter, and for
    the rows it drops being past the k-th distance)."""
    diff = Q[:, None, :] - X[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff * diff).sum(axis=2))
    return np.abs(diff).sum(axis=2)


def chunked_knn_predict(knn, X) -> np.ndarray:
    """``KNearestNeighbors.predict`` over chunks of query rows whose 3-D
    difference stays under ``_CHUNK_ELEMENTS``: every distance exact, with no
    filter, and each row's neighbours from a stable ``argsort`` (the oracle
    for the filtered, blocked selection and vote)."""
    Q = np.asarray(X, dtype=np.float64)
    n_train, d = knn.X_.shape
    k = min(knn.k, n_train)
    out = np.empty(len(Q), dtype=np.int64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, n_train * d))
    for start in range(0, len(Q), chunk):
        dists = broadcast_distances(Q[start : start + chunk], knn.X_, knn.metric)
        for row, dist in enumerate(dists):
            order = np.argsort(dist, kind="stable")[:k]
            out[start + row] = knn._vote(dist[order], knn.y_[order])
    return out


def direct_revision(initial_class: int, meta_present: bool) -> int:
    """Direct functional evaluation of the revision rule (the test oracle):
    phishing with meta present becomes benign, everything else passes through."""
    if initial_class == 1 and meta_present:
        return 0
    return initial_class


class _FullParseMetaScanner(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.found = False

    def handle_starttag(self, tag, attrs):
        if self.found or tag != "meta":
            return
        name = content = None
        for key, value in attrs:
            if key == "name" and name is None:
                name = value
            elif key == "content" and content is None:
                content = value
        if name and name.strip().lower() in {"description", "keywords", "keyword", "author"}:
            if content and content.strip():
                self.found = True


def full_parse_meta_presence(html: str) -> bool:
    """The meta flag from a parse of the whole page (the oracle for
    ``extract_meta_presence``, which stops once the flag is settled): any
    descriptive meta tag with non-blank content; ``html.parser``'s
    ``AssertionError`` ends the scan with what was found before it."""
    scanner = _FullParseMetaScanner()
    try:
        scanner.feed(html)
        scanner.close()
    except AssertionError:
        pass
    return scanner.found


def random_scenario(rng: random.Random, n_instances: int):
    """Random (beliefs, meta flags, ground truth) triple over the four
    classifiers, for the instance ids ``0 .. n_instances - 1``; the ground
    truth is a list indexed by id."""
    meta = {iid: rng.random() < 0.5 for iid in range(n_instances)}
    truth = [rng.randrange(2) for _ in range(n_instances)]
    classes = {kind: [rng.randrange(2) for _ in range(n_instances)] for kind in KIND_ORDER}
    return Beliefs(np.arange(n_instances), classes), meta, truth


# ---------------------------------------------------------------------------
# The revision layer one decision at a time, as it was before it became
# columnar: the oracle for kb.encode, apply_revision, FinalBeliefs.csv_text
# and build_report.

@dataclass(frozen=True)
class InitialBelief:
    """A classifier's pre-revision verdict on one test instance."""

    classifier: ClassifierKind
    instance_id: int
    predicted_class: int


@dataclass(frozen=True)
class FinalBelief:
    """A classifier's verdict after revision; ``revised`` marks a withdrawal."""

    classifier: ClassifierKind
    instance_id: int
    final_class: int
    revised: bool


def belief_rows(beliefs: Beliefs) -> list[InitialBelief]:
    """One belief per decision, ordered by instance id, then classifier."""
    return [InitialBelief(kind, iid, int(beliefs.classes[kind][row]))
            for row, iid in enumerate(beliefs.ids.tolist()) for kind in beliefs.classes]


def row_encode(beliefs: list[InitialBelief],
               meta_flags: Mapping[int, bool]) -> tuple[GroundAtom, ...]:
    """One ``pred`` fact per belief plus one ``meta`` fact per instance, sorted
    into ``facts.lp`` order: by predicate, then instance id, then classifier."""
    facts = []
    instance_ids = set()
    for belief in beliefs:
        iid = belief.instance_id
        if iid not in meta_flags:
            raise ValueError(f"belief references instance {iid} absent from meta flags")
        facts.append((kb.PRED, (belief.classifier.value, iid,
                                kb.CLASS_TO_SYMBOL[belief.predicted_class])))
        if iid not in instance_ids:
            instance_ids.add(iid)
            facts.append((kb.META, (iid, kb.META_TO_SYMBOL[bool(meta_flags[iid])])))

    def order(fact):  # meta(id,m) by id, then pred(cl,id,class) by id and classifier
        pred, args = fact
        return (pred, args[1], args[0]) if pred == kb.PRED else (pred, args[0], "")

    return tuple(sorted(facts, key=order))


def row_apply_revision(beliefs: list[InitialBelief], facts: tuple[GroundAtom, ...],
                       program: Program | None = None) -> list[FinalBelief]:
    """One final belief per belief, read from the ground model's ``final`` atoms."""
    if program is None:
        program = revision.revision_program()
    final_by_key: dict[tuple, int] = {}
    conflicts = set()
    atoms = [args for pred, args in ground_atoms(program, facts).model.atoms if pred == "final"]
    for bad, message in ((lambda a: len(a) != 3, "unexpected arity for final atom {atom}"),
                         (lambda a: a[2] not in kb.SYMBOL_TO_CLASS,
                          "unknown class symbol {symbol!r} in final atom {atom}")):
        found = sorted(filter(bad, atoms), key=str)
        # the first offending atom of a belief in final_beliefs.csv order
        args = next((a for belief in beliefs for a in found
                     if a[:2] == (belief.classifier.value, belief.instance_id)),
                    found[0] if found else None)
        if args is not None:
            raise ValueError(message.format(atom=nmr.format_ground_atom(("final", args)),
                                            symbol=args[-1]))
    for cl, iid, symbol in atoms:
        key = (cl, iid)
        cls = kb.SYMBOL_TO_CLASS[symbol]
        if key in final_by_key and final_by_key[key] != cls:
            conflicts.add(key)
        final_by_key[key] = cls
    for belief in beliefs:  # the first conflict in final_beliefs.csv order
        key = (belief.classifier.value, belief.instance_id)
        if key in conflicts:
            raise ValueError(f"conflicting final beliefs derived for {key}")
    finals = []
    for belief in beliefs:
        key = (belief.classifier.value, belief.instance_id)
        if key not in final_by_key:
            raise ValueError(
                f"rule program derived no final belief for classifier {key[0]!r}, "
                f"instance {key[1]}; the rule set must derive final/3 atoms "
                "(including a pass-through rule for unrevised predictions)"
            )
        cls = final_by_key[key]
        finals.append(FinalBelief(belief.classifier, belief.instance_id, cls,
                                  revised=cls != belief.predicted_class))
    return finals


def atom_serialize(facts: Iterable[GroundAtom], path) -> int:
    """``kb.serialize`` one fact at a time: ``predicate(args).`` and a line
    end per fact, in order (the oracle for its two line shapes)."""
    data = "".join(f"{nmr.format_ground_atom(atom)}.\n" for atom in facts).encode("ascii")
    Path(path).write_bytes(data)
    return len(data)


def row_final_beliefs_csv(beliefs: list[InitialBelief], finals: list[FinalBelief]) -> str:
    """``final_beliefs.csv`` through ``csv.writer``, one row per belief."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "classifier", "initial", "final", "revised"])
    for belief, final in zip(beliefs, finals):
        writer.writerow([belief.instance_id, belief.classifier.value,
                         kb.CLASS_TO_SYMBOL[belief.predicted_class],
                         kb.CLASS_TO_SYMBOL[final.final_class], int(final.revised)])
    return buf.getvalue()


def row_build_report(initial: list[InitialBelief], final: list[FinalBelief],
                     ground_truth: Mapping[int, int]) -> revision.RevisionReport:
    """Confusion counts and revision tallies, one belief at a time."""
    counts: dict = {}
    revised: dict = {}
    for b, f in zip(initial, final, strict=True):
        assert (b.classifier, b.instance_id) == (f.classifier, f.instance_id)
        if b.instance_id not in ground_truth:
            raise ValueError(f"no ground truth for instance {b.instance_id}")
        truth = ground_truth[b.instance_id]
        slot = counts.setdefault(b.classifier, {stage: dict.fromkeys(("tp", "fp", "tn", "fn"), 0)
                                                for stage in ("before", "after")})
        for stage, predicted in (("before", b.predicted_class), ("after", f.final_class)):
            if truth == 1:
                slot[stage]["tp" if predicted == 1 else "fn"] += 1
            else:
                slot[stage]["fp" if predicted == 1 else "tn"] += 1
        revised[b.classifier] = revised.get(b.classifier, 0) + f.revised
    per_classifier = {
        kind: revision.ClassifierOutcome(revision.Confusion(**counts[kind]["before"]),
                                         revision.Confusion(**counts[kind]["after"]),
                                         revised[kind])
        for kind in KIND_ORDER if kind in counts
    }
    return revision.RevisionReport(per_classifier, sum(revised.values()), len(initial))


def random_stratified_program(rng: random.Random, max_atoms: int = 11) -> str:
    """Random ground (propositional) program, stratified by construction.

    Atoms get levels; a rule's positive body stays at or below its head's
    level and its negative body strictly below, so no negative cycle can
    form.  Some atoms are asserted as facts.
    """
    n_atoms = rng.randint(4, max_atoms)
    atoms = [f"a{k}" for k in range(n_atoms)]
    level = {a: rng.randint(0, 2) for a in atoms}
    lines = []
    for a in atoms:
        if rng.random() < 0.35:
            lines.append(f"{a}.")
    n_rules = rng.randint(n_atoms, 2 * n_atoms)
    for _ in range(n_rules):
        head = rng.choice(atoms)
        pos_pool = [a for a in atoms if level[a] <= level[head] and a != head]
        neg_pool = [a for a in atoms if level[a] < level[head]]
        pos = rng.sample(pos_pool, min(len(pos_pool), rng.randint(0, 2)))
        neg = rng.sample(neg_pool, min(len(neg_pool), rng.randint(0, 1)))
        body = pos + [f"not {a}" for a in neg]
        if body:
            lines.append(f"{head} :- {', '.join(body)}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + "\n"


def strongly_connected(graph: dict[str, set[tuple[str, bool]]]) -> list[list[str]]:
    """Tarjan's algorithm, iterative; components come out dependencies-first."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    for start in sorted(graph):
        if start in index:
            continue
        work = [(start, iter(sorted(d for d, _ in graph[start])))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(d for d, _ in graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
    return components


def negative_cycle(graph, members: set[str], src: str, dst: str) -> tuple[str, ...]:
    """A concrete cycle src -not-> dst -> ... -> src inside one component."""
    parents = {dst: None}
    frontier = [dst]
    while frontier:
        nxt = []
        for node in frontier:
            for succ, _ in sorted(graph[node]):
                if succ in members and succ not in parents:
                    parents[succ] = node
                    nxt.append(succ)
        if src in parents:
            break
        frontier = nxt
    node = src if src in parents else dst
    chain = []
    while node is not None:
        chain.append(node)
        node = parents[node]
    # chain walks src back to dst through the BFS tree; display the cycle
    # forwards: src -not-> dst -> ... -> src
    return (src, f"not {chain[-1]}") + tuple(reversed(chain[1:-1])) + (src,)


def tarjan_stratify(graph: dict[str, set[tuple[str, bool]]]) -> dict[str, int]:
    """Strata from strongly connected components, dependencies first (the
    oracle for ``nmr._stratify``): a negated edge inside a component is a
    negative cycle; otherwise a component sits one level above its highest
    negated dependency and level with its highest positive one."""
    components = strongly_connected(graph)
    for comp in components:
        members = set(comp)
        for pred in comp:
            for dep, negated in graph[pred]:
                if negated and dep in members:
                    raise StratificationError(negative_cycle(graph, members, pred, dep))
    strata: dict[str, int] = {}
    for comp in components:  # dependencies first
        level = 0
        for pred in comp:
            for dep, negated in graph[pred]:
                if dep in comp:
                    continue
                level = max(level, strata[dep] + (1 if negated else 0))
        for pred in comp:
            strata[pred] = level
    return strata


def atom_sort_key(atom: GroundAtom):
    """A total order on ground atoms: mixed str/int argument tuples are not
    directly comparable."""
    return (atom[0], tuple((0, a) if isinstance(a, int) else (1, str(a)) for a in atom[1]))


def predicate_graph(program: Program) -> dict[str, set[tuple[str, bool]]]:
    """The ``(predicate, negated)`` dependencies of each predicate of
    ``program``, built by the graph builder ``parse_program`` stratifies."""
    return nmr._predicate_graph((rule.head.predicate, [a.predicate for a in rule.body_pos],
                                 [a.predicate for a in rule.body_neg]) for rule in program.rules)


def random_predicate_graph(rng: random.Random, max_preds: int = 7) -> dict[str, set[tuple[str, bool]]]:
    """A random predicate dependency graph in ``nmr._predicate_graph``'s shape,
    with positive and negated edges; many have a cycle through a negated edge."""
    preds = [f"p{k}" for k in range(rng.randint(1, max_preds))]
    graph = {p: set() for p in preds}
    for _ in range(rng.randint(0, 2 * len(preds))):
        graph[rng.choice(preds)].add((rng.choice(preds), rng.random() < 0.3))
    return graph


def assert_cycle_in_graph(cycle: tuple[str, ...], graph) -> None:
    """``cycle`` reads ``p -> not d -> ... -> p`` and every step is an edge of ``graph``."""
    start, negated, *rest = cycle
    assert negated.startswith("not ") and cycle[-1] == start
    dep = negated[len("not "):]
    assert (dep, True) in graph[start]
    walk = [dep, *rest] if dep != start else [dep, *rest[:-1]]  # a self-loop closes at once
    for a, b in zip(walk, walk[1:]):
        assert (b, False) in graph[a] or (b, True) in graph[a]
    assert walk[-1] == start


# ---------------------------------------------------------------------------
# The grounder before semi-naive evaluation, kept as the oracle of nmr.ground

class _AtomStore:
    """Derived ground atoms with per-predicate lists and a first-argument index."""

    def __init__(self):
        self.all: set[GroundAtom] = set()
        self.by_pred: dict[str, list[tuple]] = {}
        self.by_first: dict[tuple[str, object], list[tuple]] = {}

    def add(self, atom: GroundAtom) -> bool:
        if atom in self.all:
            return False
        self.all.add(atom)
        pred, args = atom
        self.by_pred.setdefault(pred, []).append(args)
        if args:
            self.by_first.setdefault((pred, args[0]), []).append(args)
        return True

    def candidates(self, pred: str, first) -> list[tuple]:
        if first is _UNBOUND:
            return self.by_pred.get(pred, ())
        return self.by_first.get((pred, first), ())


_UNBOUND = object()


def _first_key(atom: Atom, subst: dict):
    if not atom.terms:
        return _UNBOUND
    t0 = atom.terms[0]
    if isinstance(t0, Variable):
        return subst.get(t0.name, _UNBOUND)
    return t0


def _extend(terms: tuple[Term, ...], args: tuple, subst: dict) -> dict | None:
    out = subst
    copied = False
    for t, a in zip(terms, args):
        if isinstance(t, Variable):
            cur = out.get(t.name, _UNBOUND)
            if cur is _UNBOUND:
                if not copied:
                    out = dict(out)
                    copied = True
                out[t.name] = a
            elif cur != a:
                return None
        elif t != a:
            return None
    return out


def _substitute(atom: Atom, subst: dict) -> GroundAtom:
    return (
        atom.predicate,
        tuple(subst[t.name] if isinstance(t, Variable) else t for t in atom.terms),
    )


def _join(body: tuple[Atom, ...], store: _AtomStore) -> Iterator[dict]:
    """All substitutions grounding every body atom against the store."""

    def expand(i: int, subst: dict) -> Iterator[dict]:
        if i == len(body):
            yield subst
            return
        atom = body[i]
        for args in store.candidates(atom.predicate, _first_key(atom, subst)):
            extended = _extend(atom.terms, args, subst)
            if extended is not None:
                yield from expand(i + 1, extended)

    return expand(0, {})


def relations_of(atoms: Iterable[GroundAtom]) -> nmr.Relations:
    """``atoms``, of one arity per predicate, grouped by predicate in one pass:
    a table per predicate in order of first appearance, its rows in input order."""
    rel, rows = nmr.Relations(), {}
    for pred, args in atoms:
        rows.setdefault(pred, []).append(args)
    for pred, args in rows.items():
        codes = [rel.code(a) for row in args for a in row]
        rel.tables[pred] = np.array(codes, np.int64).reshape(len(args), len(args[0]))
    return rel


def ground_atoms(program: Program, atoms: Iterable[GroundAtom] = ()) -> nmr.GroundProgram:
    """``nmr.ground`` over ``atoms``, grouped into a fact base by :func:`relations_of`."""
    return nmr.ground(program, relations_of(atoms))


def check_stability(ground_program, candidate) -> bool:
    """Reduct-based stable-model test, independent of the stratified evaluator.

    Drops rules with a negative literal inside the candidate, strips the
    remaining negative literals, and compares the candidate with the least
    model of the resulting positive program.
    """
    cand = frozenset(getattr(candidate, "atoms", candidate))  # an AnswerSet, or atoms
    reduct = [(head, pos) for head, pos, neg in ground_program.rules
              if not any(n in cand for n in neg)]
    least: set[GroundAtom] = set()
    changed = True
    while changed:
        changed = False
        for head, pos in reduct:
            if head not in least and all(p in least for p in pos):
                least.add(head)
                changed = True
    return least == cand


def naive_ground(program: Program, facts: Iterable[GroundAtom] = ()) -> SimpleNamespace:
    """``nmr.ground`` as a fixpoint that re-joins every rule of a stratum until
    a pass adds nothing, one tuple at a time through a first-argument index
    (the oracle for its semi-naive, compiled joins).  It returns the same
    model and set of rules; its ``stats.firings`` counts every instantiation
    once per pass, so at least twice."""
    fact_atoms = [(pred, tuple(args)) for pred, args in facts]
    check_arities(program, {pred: len(args) for pred, args in fact_atoms})

    store = _AtomStore()
    ground_rules: list[GroundRule] = []
    seen: set[GroundRule] = set()
    firings = 0

    for atom in fact_atoms:
        if store.add(atom):
            rule = GroundRule(atom, (), ())
            seen.add(rule)
            ground_rules.append(rule)

    by_stratum: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_stratum.setdefault(program.strata[rule.head.predicate], []).append(rule)

    for stratum in sorted(by_stratum):
        rules = by_stratum[stratum]
        while True:
            new_atoms: dict[GroundAtom, None] = {}
            for rule in rules:
                for subst in _join(rule.body_pos, store):
                    firings += 1
                    head = _substitute(rule.head, subst)
                    g = GroundRule(
                        head,
                        tuple(_substitute(a, subst) for a in rule.body_pos),
                        tuple(_substitute(a, subst) for a in rule.body_neg),
                    )
                    if g not in seen:
                        seen.add(g)
                        ground_rules.append(g)
                    # negative literals point strictly below this stratum, so
                    # their truth is already decided by the store
                    if head not in store.all and not any(n in store.all for n in g.neg):
                        new_atoms[head] = None
            if not new_atoms:
                break
            for atom in new_atoms:
                store.add(atom)

    stats = EvalStats(firings, len(store.all))
    return SimpleNamespace(rules=tuple(ground_rules), stats=stats,
                           model=AnswerSet(frozenset(store.all), stats))




def random_nonground_program(rng: random.Random, consts=(0, 1, 2, "a", "b"),
                             fact_consts=None) -> tuple[str, list[GroundAtom]]:
    """A random non-ground stratified program and input facts for it.

    Predicates of arity 0-2 get levels 0-2; a rule's positive body stays at
    or below its head's level (so a stratum can recurse, through rules of
    up to three body atoms) and its negative body strictly below.  Terms are
    variables from a small pool, so one can repeat inside an atom, or
    constants from ``consts``, in the head and both bodies; the input facts
    draw theirs from ``fact_consts`` (by default ``consts``).  Every program
    also holds a duplicated rule, a copy of a rule with its variables
    renamed, and a program fact equal to an input fact, if there is one.
    """
    preds = {f"p{k}": (rng.randint(0, 2), rng.randint(0, 2)) for k in range(rng.randint(2, 5))}
    facts = [(pred, tuple(rng.choice(fact_consts or consts) for _ in range(arity)))
             for pred, (arity, _) in preds.items() for _ in range(rng.randint(0, 4))]

    def atom(pred, variables):
        terms = [rng.choice(variables) if variables and rng.random() < 0.8 else rng.choice(consts)
                 for _ in range(preds[pred][0])]
        return pred, terms

    rules = []
    for _ in range(rng.randint(1, 6)):
        head = rng.choice(list(preds))
        level = preds[head][1]
        pos = [atom(rng.choice([p for p in preds if preds[p][1] <= level]), ["X", "Y", "Z"])
               for _ in range(rng.randint(0, 3))]
        bound = sorted({t for _, terms in pos for t in terms if t in ("X", "Y", "Z")})
        lower = [p for p in preds if preds[p][1] < level]
        neg = [atom(rng.choice(lower), bound) for _ in range(rng.randint(0, 1)) if lower]
        rules.append((atom(head, bound), pos, neg))

    def renamed(a):
        return a[0], [{"X": "V", "Y": "W", "Z": "U"}.get(t, t) for t in a[1]]

    head, pos, neg = rng.choice(rules)
    rules += [rng.choice(rules), (renamed(head), [*map(renamed, pos)], [*map(renamed, neg)])]

    def text(pred, terms):
        return f"{pred}({','.join(map(str, terms))})" if terms else pred

    # a program fact, unless its constants cannot be written in rule text
    lines = [f"{text(*fact)}." for fact in rng.sample(facts, min(len(facts), 1))
             if all(a in consts for a in fact[1])]
    for head, pos, neg in rules:
        body = [text(*a) for a in pos] + [f"not {text(*a)}" for a in neg]
        lines.append(f"{text(*head)} :- {', '.join(body)}." if body else f"{text(*head)}.")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", facts


def positive_instantiations(program: Program, model: Iterable[GroundAtom]) -> int:
    """The number of (rule, substitution) pairs whose positive body holds in
    ``model``: the firings of an evaluator that fires each once."""
    by_pred: dict[str, list[tuple]] = {}
    for pred, args in model:
        by_pred.setdefault(pred, []).append(args)

    def count(body: tuple[Atom, ...], subst: dict) -> int:
        if not body:
            return 1
        total = 0
        for args in by_pred.get(body[0].predicate, ()):
            extended = dict(subst)
            if all(extended.setdefault(t.name, a) == a if isinstance(t, Variable) else t == a
                   for t, a in zip(body[0].terms, args)):
                total += count(body[1:], extended)
        return total

    return sum(count(rule.body_pos, {}) for rule in program.rules)


def dict_reader_manifest(out_dir: Path, n_rows: int) -> tuple[set[int], set[int]]:
    """``cli._read_manifest`` through ``csv.DictReader``, as it was before it
    read header positions (the oracle for its results and messages)."""
    from metaphish.cli import MANIFEST_FILE, ConfigError

    path = out_dir / MANIFEST_FILE
    if not path.is_file():
        raise ConfigError(f"split manifest not found: {path} (run 'train' first)")
    ids_by_role: dict[str, set[int]] = {"train": set(), "test": set()}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                role = row.get("role")
                try:
                    rid = int(row.get("id") or "")
                except ValueError:
                    rid = None
                fold = row.get("fold")
                if role not in ids_by_role:
                    problem = f"unknown role {role!r} (expected 'train' or 'test')"
                elif rid is None:
                    problem = f"id {row.get('id')!r} is not an integer"
                elif role == "train" and not (fold and fold.isascii() and fold.isdigit()):
                    problem = f"train row {rid} has fold {fold!r}, not a non-negative integer"
                elif role == "test" and fold != "":
                    problem = f"test row {rid} has fold {fold!r}; a test row has none"
                elif not 0 <= rid < n_rows:
                    problem = f"id {rid} is outside the dataset's rows [0, {n_rows})"
                elif rid in ids_by_role["train"] or rid in ids_by_role["test"]:
                    problem = f"duplicate id {rid}"
                else:
                    ids_by_role[role].add(rid)
                    continue
                raise ConfigError(
                    f"{path}, line {reader.line_num}: {problem}; re-run 'train' on this dataset"
                )
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc}); re-run 'train'") from None
    if not ids_by_role["test"]:
        raise ConfigError(
            f"{path}: no test rows to revise; re-run 'train' with a larger --test-fraction"
        )
    if not ids_by_role["train"]:
        raise ConfigError(f"{path}: no train rows to rebuild the models from; re-run 'train'")
    if len(ids_by_role["train"]) + len(ids_by_role["test"]) < n_rows:
        missing = min(set(range(n_rows)) - ids_by_role["train"] - ids_by_role["test"])
        raise ConfigError(f"{path}: id {missing} of the dataset's {n_rows} rows is not listed; "
                          f"re-run 'train' on this dataset")
    return ids_by_role["train"], ids_by_role["test"]
