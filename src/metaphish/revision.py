"""Post-hoc belief revision and before/after reporting.

:func:`apply_revision` routes every belief through the symbolic layer: the
rule program is grounded over the beliefs' fact base (``kb.encode``) and the
final verdicts are read from the stable model that grounding computes.
Revision is one-directional: only phishing verdicts with meta evidence are
withdrawn, so false positives can only fall and false negatives only rise.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping

from metaphish import kb, nmr
from metaphish.classifiers import ClassifierKind, InitialBelief, KIND_ORDER

_FINAL = "final"


def default_rules_text() -> str:
    return (resources.files("metaphish") / "rules" / "revision.lp").read_text("utf-8")


def revision_program() -> nmr.Program:
    """The bundled three-rule revision program (two strata: revise below final)."""
    return nmr.parse_program(default_rules_text())


def load_rules(path: str | Path) -> nmr.Program:
    return nmr.parse_program(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class FinalBelief:
    """A classifier's verdict after revision; ``revised`` marks a withdrawal."""

    classifier: ClassifierKind
    instance_id: int
    final_class: int
    revised: bool


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
    revised_ids: tuple[int, ...]


@dataclass(frozen=True)
class RevisionReport:
    per_classifier: dict[ClassifierKind, ClassifierOutcome]
    revised_total: int
    decisions_total: int

    @property
    def revised_fraction(self) -> float:
        return self.revised_total / self.decisions_total if self.decisions_total else 0.0


def apply_revision(beliefs: list[InitialBelief], fact_base: kb.FactBase,
                   program: nmr.Program | None = None) -> list[FinalBelief]:
    """Revise beliefs by grounding the rule program over ``fact_base``; one output per input.

    ``fact_base`` is ``kb.encode(beliefs, meta_flags)``.  The verdicts are read
    from the model that :func:`nmr.ground` computes, which must carry exactly
    one ``final(cl,id,class)`` atom per belief; anything else means the rule
    program is broken and raises.
    """
    if program is None:
        program = revision_program()
    final_by_key: dict[tuple[str, int], int] = {}
    for pred, args in nmr.ground(program, fact_base).model.atoms:
        if pred != _FINAL:
            continue
        if len(args) != 3:
            raise ValueError(f"unexpected arity for final atom {nmr.format_ground_atom((pred, args))}")
        cl, iid, symbol = args
        if symbol not in kb.SYMBOL_TO_CLASS:
            raise ValueError(f"unknown class symbol {symbol!r} in final atom")
        key = (cl, iid)
        cls = kb.SYMBOL_TO_CLASS[symbol]
        if key in final_by_key and final_by_key[key] != cls:
            raise ValueError(f"conflicting final beliefs derived for {key}")
        final_by_key[key] = cls

    finals = []
    symbols = {}  # classifier -> its symbol, looked up once per kind
    for belief in beliefs:
        cl = belief.classifier
        if cl not in symbols:
            symbols[cl] = kb.classifier_symbol(cl)
        key = (symbols[cl], belief.instance_id)
        if key not in final_by_key:
            raise ValueError(
                f"rule program derived no final belief for classifier {key[0]!r}, "
                f"instance {key[1]}; the rule set must derive final/3 atoms "
                "(including a pass-through rule for unrevised predictions)"
            )
        cls = final_by_key[key]
        finals.append(
            FinalBelief(cl, belief.instance_id, cls,
                        revised=cls != belief.predicted_class)
        )
    return finals


def build_report(initial: list[InitialBelief], final: list[FinalBelief],
                 ground_truth: Mapping[int, int]) -> RevisionReport:
    """Per-classifier before/after confusion counts and revision tallies.

    Ground truth never crosses into the revision layer; it is consulted only
    here, after the final beliefs are fixed.
    """
    if len(initial) != len(final):
        raise ValueError(f"{len(initial)} initial beliefs vs {len(final)} final beliefs")
    counts: dict[ClassifierKind, dict[str, dict[str, int]]] = {}
    revised_ids: dict[ClassifierKind, list[int]] = {}
    for b, f in zip(initial, final):
        if (b.classifier, b.instance_id) != (f.classifier, f.instance_id):
            raise ValueError(
                f"misaligned beliefs: initial ({b.classifier.value},{b.instance_id}) "
                f"vs final ({f.classifier.value},{f.instance_id})"
            )
        if b.instance_id not in ground_truth:
            raise ValueError(f"no ground truth for instance {b.instance_id}")
        truth = ground_truth[b.instance_id]
        slot = counts.setdefault(
            b.classifier,
            {"before": {"tp": 0, "fp": 0, "tn": 0, "fn": 0},
             "after": {"tp": 0, "fp": 0, "tn": 0, "fn": 0}},
        )
        for stage, predicted in (("before", b.predicted_class), ("after", f.final_class)):
            if truth == 1:
                slot[stage]["tp" if predicted == 1 else "fn"] += 1
            else:
                slot[stage]["fp" if predicted == 1 else "tn"] += 1
        if f.revised:
            revised_ids.setdefault(b.classifier, []).append(b.instance_id)

    per_classifier = {}
    revised_total = 0
    for kind in KIND_ORDER:
        if kind not in counts:
            continue
        ids = tuple(sorted(revised_ids.get(kind, [])))
        revised_total += len(ids)
        per_classifier[kind] = ClassifierOutcome(
            before=Confusion(**counts[kind]["before"]),
            after=Confusion(**counts[kind]["after"]),
            revised_count=len(ids),
            revised_ids=ids,
        )
    return RevisionReport(per_classifier, revised_total, len(initial))


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


def render_report_text(kv: Mapping[str, str]) -> str:
    """Side-by-side false-positive table plus per-classifier metric rows."""
    kinds = _kv_kinds(kv)
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
