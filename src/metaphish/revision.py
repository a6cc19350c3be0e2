"""Post-hoc belief revision and before/after reporting.

:func:`apply_revision` routes every belief through the symbolic layer: the
rule program is grounded over the beliefs' facts (``kb.encode``) and the
final verdicts are read from the stable model that grounding computes, into
one final-class column per classifier (:class:`FinalBeliefs`), from which
``final_beliefs.csv`` and the confusion counts are made.  Revision is
one-directional: only phishing verdicts with meta evidence are withdrawn, so
false positives can only fall and false negatives only rise.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import chain, repeat
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from metaphish import kb, nmr
from metaphish.classifiers import KIND_ORDER, Beliefs, ClassifierKind


def default_rules_text() -> str:
    return (resources.files("metaphish") / "rules" / "revision.lp").read_text("utf-8")


def revision_program() -> nmr.Program:
    """The bundled three-rule revision program (two strata: revise below final)."""
    return nmr.parse_program(default_rules_text())


def load_rules(path: str | Path) -> nmr.Program:
    return nmr.parse_program(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Confusion:
    """Binary confusion counts with phishing as the positive class."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class ClassifierOutcome:
    before: Confusion
    after: Confusion
    revised_count: int


@dataclass(frozen=True)
class RevisionReport:
    per_classifier: dict[ClassifierKind, ClassifierOutcome]
    revised_total: int
    decisions_total: int

    @property
    def revised_fraction(self) -> float:
        return self.revised_total / self.decisions_total if self.decisions_total else 0.0


class Decision(NamedTuple):
    """One classifier's verdict on one instance, before and after revision."""

    instance_id: int
    classifier: ClassifierKind
    initial_class: int
    final_class: int
    revised: bool


@dataclass(frozen=True, eq=False)
class FinalBeliefs(Beliefs):
    """The verdicts after revision on the ids of ``initial``, the beliefs they revise.

    Iterating makes the :class:`Decision` rows in ``final_beliefs.csv`` order
    (instance id, then :data:`KIND_ORDER`).
    """

    initial: Beliefs

    def __iter__(self):
        columns = [zip(repeat(kind), self.initial.classes[kind].tolist(), final.tolist())
                   for kind, final in self.classes.items()]
        for iid, *verdicts in zip(self.ids.tolist(), *columns):
            for kind, before, after in verdicts:
                yield Decision(iid, kind, before, after, before != after)

    def csv_text(self) -> str:
        """``final_beliefs.csv``: a header, then one row per decision."""
        ids = list(map(str, self.ids.tolist()))
        rows = []
        for kind, final in self.classes.items():
            # the rest of a row, after its id, by the code 2 * initial + final
            rest = [f",{kind.value},{kb.CLASS_TO_SYMBOL[code >> 1]},"
                    f"{kb.CLASS_TO_SYMBOL[code & 1]},{int(code in (1, 2))}\n" for code in range(4)]
            codes = (2 * self.initial.classes[kind] + final).tolist()
            rows.append(map(str.__add__, ids, map(rest.__getitem__, codes)))
        return "".join(["id,classifier,initial,final,revised\n", *chain.from_iterable(zip(*rows))])


def apply_revision(beliefs: Beliefs, facts: nmr.Relations,
                   program: nmr.Program | None = None) -> FinalBeliefs:
    """Revise beliefs by grounding the rule program over ``facts``.

    ``facts`` is ``kb.encode(beliefs, meta_flags)``.  The verdicts are read
    from the columns of the ``final`` atoms of the model that
    :func:`nmr.ground` computes, which must hold exactly one
    ``final(cl,id,class)`` atom per decision; anything else means the rule
    program is broken and raises, naming the first offending atom in
    final_beliefs.csv order.
    """
    if program is None:
        program = revision_program()
    model = nmr.ground(program, facts).model.relations
    final = model.tables.get("final", np.empty((0, 3), np.int64))
    if final.shape[1] != 3 and len(final):
        atom = nmr.format_ground_atom(("final", _first_decision(model.decode(final))))
        raise ValueError(f"unexpected arity for final atom {atom}")
    final = final.reshape(-1, 3)
    cls = _positions(np.array([model.code(symbol) for symbol in kb.SYMBOL_TO_CLASS]), final[:, 2])
    if (cls < 0).any():
        args = _first_decision(model.decode(final[cls < 0]))
        raise ValueError(f"unknown class symbol {args[2]!r} in final atom "
                         f"{nmr.format_ground_atom(('final', args))}")
    _, inverse, counts = np.unique(nmr.row_keys(final[:, :2], final[:0, :2])[0],
                                   return_inverse=True, return_counts=True)
    twice = counts[inverse] > 1  # the atoms are distinct: two classes
    if twice.any():
        raise ValueError("conflicting final beliefs derived for "
                         f"{_first_decision(model.decode(final[twice, :2]))}")

    kinds = list(beliefs.classes)
    k = _positions(np.array([model.code(kind.value) for kind in kinds]), final[:, 0])
    row = _positions(model.encode(beliefs.ids), final[:, 1])
    known = (k >= 0) & (row >= 0)
    table = np.full((len(kinds), len(beliefs.ids)), -1, np.int64)
    table[k[known], row[known]] = np.array(list(kb.SYMBOL_TO_CLASS.values()))[cls[known]]
    missing = np.argwhere(table.T < 0)  # (row, classifier) pairs, in (id, classifier) order
    if missing.size:
        row, k = missing[0]
        raise ValueError(
            f"rule program derived no final belief for classifier {kinds[k].value!r}, "
            f"instance {beliefs.ids[row]}; the rule set must derive final/3 atoms "
            "(including a pass-through rule for unrevised predictions)")
    if not known.all():  # an atom for no decision
        cl, iid = min(model.decode(final[~known, :2]), key=str)
        raise ValueError(f"rule program derived a final belief for classifier {cl!r}, "
                         f"instance {iid!r}, which is not a decision of the beliefs")
    return FinalBeliefs(beliefs.ids, dict(zip(kinds, table)), beliefs)


def _positions(codes: np.ndarray, found: np.ndarray) -> np.ndarray:
    """The index in ``codes`` (distinct) of each of ``found``, or -1."""
    if not len(codes):
        return np.full(len(found), -1)
    order = np.argsort(codes)
    at = order[np.searchsorted(codes, found, sorter=order).clip(max=len(codes) - 1)]
    return np.where(codes[at] == found, at, -1)


def _first_decision(found: list[tuple]) -> tuple:
    """The argument tuple among ``found`` that comes first in
    final_beliefs.csv order, read as ``(classifier, instance id, ...)``: by
    instance id, then :data:`KIND_ORDER`, then the text of the tuple."""
    rank = {kind.value: k for k, kind in enumerate(KIND_ORDER)}

    def key(args):
        cl, iid = (*args, None, None)[:2]  # ids of str and int are not comparable
        return ((0, iid) if isinstance(iid, int) else (1, str(iid)),
                rank.get(cl, len(rank)), str(args))
    return min(found, key=key)


def build_report(final: FinalBeliefs, ground_truth) -> RevisionReport:
    """Per-classifier before/after confusion counts and revision tallies.

    ``ground_truth`` holds the labels by instance id (``Dataset.y``).  It
    never crosses into the revision layer; it is consulted only here, after
    the final beliefs are fixed.
    """
    ids = final.ids
    truth = np.asarray(ground_truth)
    beyond = ids[ids >= len(truth)]
    if beyond.size:
        raise ValueError(f"no ground truth for instance {beyond[0]}")
    truth_code = 2 * (truth[ids] == 1)

    def confusion(said: np.ndarray) -> Confusion:  # cells by 2 * truth + verdict
        tn, fp, fn, tp = np.bincount(truth_code + said, minlength=4).tolist()
        return Confusion(tp, fp, tn, fn)

    per_classifier = {kind: ClassifierOutcome(confusion(final.initial.classes[kind]),
                                              confusion(after),
                                              int(np.sum(final.initial.classes[kind] != after)))
                      for kind, after in final.classes.items()}
    revised_total = sum(outcome.revised_count for outcome in per_classifier.values())
    return RevisionReport(per_classifier, revised_total, len(final))


# ---------------------------------------------------------------------------
# Report rendering: a flat key-value form is the exchange format; the text
# tables are rendered from the key-value form alone so a stored report.kv
# reproduces report.txt byte for byte.

_STAGES = ("before", "after")
_CELLS = ("tp", "fp", "tn", "fn")


def report_to_kv(report: RevisionReport) -> dict[str, str]:
    kv: dict[str, str] = {}
    for kind, outcome in report.per_classifier.items():
        for stage in _STAGES:
            confusion = getattr(outcome, stage)
            for cell in _CELLS:
                kv[f"{kind.value}.{cell}_{stage}"] = str(getattr(confusion, cell))
        kv[f"{kind.value}.revised"] = str(outcome.revised_count)
    kv["total.revised"] = str(report.revised_total)
    kv["total.decisions"] = str(report.decisions_total)
    kv["total.fraction"] = f"{report.revised_fraction:.6f}"
    return kv


def format_kv(kv: Mapping[str, str]) -> str:
    return "".join(f"{key}={kv[key]}\n" for key in sorted(kv))


def parse_kv(text: str) -> dict[str, str]:
    kv = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_num}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    return kv


def _kv_kinds(kv: Mapping[str, str]) -> list[str]:
    present = {key.split(".", 1)[0] for key in kv if "." in key}
    return [k.value for k in KIND_ORDER if k.value in present]


def _kv_confusion(kv: Mapping[str, str], kind: str, stage: str) -> Confusion:
    return Confusion(**{cell: int(kv[f"{kind}.{cell}_{stage}"]) for cell in _CELLS})


def _check_counts(kv: Mapping[str, str], kinds: list[str]) -> None:
    """Raise ValueError unless every count is a non-negative integer, each
    classifier's counts before and after revision have one sum, no smaller
    than its revisions, and the totals are the sums as revise writes them.

    Revision changes verdicts, never labels, and each revision moves one
    count between ``tp`` and ``fn`` or between ``fp`` and ``tn``.  So every
    classifier counts the same phishing (``tp + fn``) and legitimate
    (``fp + tn``) instances before and after, and its ``revised`` exceeds
    ``|tp_after - tp_before| + |fp_after - fp_before|`` by an even number."""
    for key, value in kv.items():
        if key != "total.fraction" and not (value.isascii() and value.isdigit()):
            raise ValueError(f"{key} is {value!r}, not a non-negative integer")
    decisions = revised = 0
    labels = None  # the (phishing, legitimate) instances of the first classifier, before
    for kind in kinds:
        before, after = (_kv_confusion(kv, kind, stage) for stage in _STAGES)
        n_revised = int(kv[f"{kind}.revised"])
        if after.total != before.total or n_revised > before.total:
            raise ValueError(f"{kind} counts {before.total} decisions before revision, "
                             f"{after.total} after and {n_revised} revised")
        for stage, counts in zip(_STAGES, (before, after)):
            counted = (counts.tp + counts.fn, counts.fp + counts.tn)
            labels = labels or counted
            if counted != labels:
                raise ValueError(f"{kind} counts {counted[0]} phishing and {counted[1]} legitimate "
                                 f"instances {stage} revision, but {kinds[0]} counts "
                                 f"{labels[0]} and {labels[1]} before")
        moved = abs(after.tp - before.tp) + abs(after.fp - before.fp)
        if n_revised < moved or (n_revised - moved) % 2:
            raise ValueError(f"{kind}.revised is {n_revised}, but its counts before and after "
                             f"revision differ by {moved} verdicts")
        decisions, revised = decisions + before.total, revised + n_revised
    for key, value in report_to_kv(RevisionReport({}, revised, decisions)).items():
        if kv[key] != value:
            raise ValueError(f"{key} is {kv[key]!r}, but the classifiers' counts give {value!r}")


def render_report_text(kv: Mapping[str, str]) -> str:
    """Side-by-side false-positive table plus per-classifier metric rows."""
    kinds = _kv_kinds(kv)
    _check_counts(kv, kinds)
    lines = []
    header = "".join(f"{k:>8}" for k in kinds)
    lines.append("False positives (legitimate URLs flagged phishing)")
    lines.append(f"{'':14}{header}")
    for stage, title in (("before", "without nmr"), ("after", "with nmr")):
        cells = "".join(f"{int(kv[f'{k}.fp_{stage}']):>8}" for k in kinds)
        lines.append(f"  {title:<12}{cells}")
    lines.append("")
    lines.append("Classifier metrics (phishing = positive class)")
    lines.append(
        f"  {'classifier':<12}{'stage':<8}{'tp':>6}{'fp':>6}{'tn':>6}{'fn':>6}"
        f"{'accuracy':>10}{'precision':>11}{'recall':>8}{'f1':>8}"
    )
    for kind in kinds:
        for stage in _STAGES:
            c = _kv_confusion(kv, kind, stage)
            lines.append(
                f"  {kind:<12}{stage:<8}{c.tp:>6}{c.fp:>6}{c.tn:>6}{c.fn:>6}"
                f"{c.accuracy:>10.4f}{c.precision:>11.4f}{c.recall:>8.4f}{c.f1:>8.4f}"
            )
    lines.append("")
    lines.append("Belief revisions")
    for kind in kinds:
        lines.append(f"  {kind:<12}{int(kv[f'{kind}.revised']):>8}")
    total = int(kv["total.revised"])
    decisions = int(kv["total.decisions"])
    fraction = float(kv["total.fraction"])
    lines.append(
        f"  {'total':<12}{total:>8}  ({fraction * 100:.2f}% of {decisions} decisions)"
    )
    return "\n".join(lines) + "\n"
