from __future__ import annotations

import random

import numpy as np
import pytest

from metaphish import kb, nmr
from metaphish.classifiers import KIND_ORDER, Beliefs, ClassifierKind
from metaphish.revision import (
    apply_revision,
    build_report,
    format_kv,
    parse_kv,
    render_report_text,
    report_to_kv,
    revision_program,
)

from _support import (
    belief_rows,
    direct_revision,
    random_scenario,
    row_apply_revision,
    row_build_report,
    row_encode,
    row_final_beliefs_csv,
)


class TestRevisionProgram:
    def test_three_rules_two_strata(self):
        program = revision_program()
        assert len(program.rules) == 3
        assert program.strata["final"] == program.strata["revise"] + 1
        assert len({program.strata["revise"], program.strata["final"]}) == 2

    def test_phishing_with_meta_revises(self):
        answer = nmr.solve(
            nmr.ground(revision_program(), [("pred", ("svm", 7, "phishing")), ("meta", (7, "yes"))])
        )
        assert answer.holds("final", "svm", 7, "benign")
        assert answer.holds("revise", "svm", 7)
        assert not answer.holds("final", "svm", 7, "phishing")

    def test_benign_without_meta_passes_through(self):
        answer = nmr.solve(
            nmr.ground(revision_program(), [("pred", ("svm", 8, "benign")), ("meta", (8, "no"))])
        )
        assert answer.holds("final", "svm", 8, "benign")
        assert answer.with_predicate("revise") == []


class TestApplyRevision:
    def test_truth_table_matches_functional_oracle(self):
        # exhaustive over (initial class, meta flag)
        for initial in (0, 1):
            for meta in (False, True):
                beliefs = Beliefs([0], {ClassifierKind.DT: [initial]})
                (final,) = apply_revision(beliefs, kb.encode(beliefs, {0: meta}))
                assert final.final_class == direct_revision(initial, meta)
                assert final.revised == (initial == 1 and meta)

    def test_unanimous_phishing_with_meta_flips_all_four(self):
        beliefs = Beliefs([19], {kind: [1] for kind in KIND_ORDER})
        finals = apply_revision(beliefs, kb.encode(beliefs, {19: True}))
        assert all(f.final_class == 0 and f.revised for f in finals)
        assert len(finals) == 4

    def test_output_aligned_with_input(self):
        rng = random.Random(3)
        beliefs, meta, _ = random_scenario(rng, 30)
        finals = apply_revision(beliefs, kb.encode(beliefs, meta))
        assert len(finals) == len(beliefs) == 120
        assert [(f.instance_id, f.classifier, f.initial_class) for f in finals] == [
            (i, kind, int(beliefs.classes[kind][i])) for i in range(30) for kind in KIND_ORDER]

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(99)
        beliefs, meta, _ = random_scenario(rng, 250)  # 1000 decisions
        finals = apply_revision(beliefs, kb.encode(beliefs, meta))
        for f in finals:
            assert f.final_class == direct_revision(f.initial_class, meta[f.instance_id])

    def test_never_flips_benign_to_phishing(self):
        rng = random.Random(5)
        for _ in range(200):
            beliefs, meta, _ = random_scenario(rng, 8)
            for f in apply_revision(beliefs, kb.encode(beliefs, meta)):
                if f.initial_class == 0:
                    assert f.final_class == 0 and not f.revised

    def test_idempotent(self):
        rng = random.Random(6)
        beliefs, meta, _ = random_scenario(rng, 40)
        finals = apply_revision(beliefs, kb.encode(beliefs, meta))
        revised = Beliefs(beliefs.ids, finals.classes)
        again = apply_revision(revised, kb.encode(revised, meta))
        assert all(not f.revised for f in again)
        assert [f.final_class for f in again] == [f.final_class for f in finals]

    def test_empty_program_gives_actionable_error(self):
        empty = nmr.parse_program("% nothing to derive\n")
        beliefs = Beliefs([0], {ClassifierKind.SVM: [1]})
        with pytest.raises(ValueError, match="final"):
            apply_revision(beliefs, kb.encode(beliefs, {0: True}), program=empty)


# a valid rule file other than the bundled one: it can also raise a benign verdict
OTHER_RULES = """
suspect(CL,ID) :- pred(CL,ID,benign), meta(ID,no), pred(svm,ID,phishing).
final(CL,ID,phishing) :- suspect(CL,ID).
final(CL,ID,C) :- pred(CL,ID,C), not suspect(CL,ID).
"""
BROKEN_RULES = {
    "empty": "% nothing to derive\n",
    "no-final": "revise(C,I) :- pred(C,I,phishing), meta(I,yes).\n",
    "final-arity-2": "final(C,I) :- pred(C,I,X).\n",
    "unknown-class-symbol": "final(C,I,maybe) :- pred(C,I,X).\n",
    "conflicting-finals": "final(C,I,benign) :- pred(C,I,X).\nfinal(C,I,phishing) :- pred(C,I,X).\n",
}


def random_beliefs(rng: random.Random):
    """Beliefs on ids with gaps, of a random set of classifiers, with any share
    of phishing verdicts and of meta flags (none and all included), plus the
    meta flags (with extra ids) and the ground truth by id."""
    ids = sorted(rng.sample(range(300), rng.randint(1, 40)))
    kinds = [kind for kind in KIND_ORDER if rng.random() < 0.7] or [rng.choice(KIND_ORDER)]
    phishing, flagged = (rng.choice((0.0, 1.0, rng.random())) for _ in range(2))
    beliefs = Beliefs(ids, {kind: [int(rng.random() < phishing) for _ in ids] for kind in kinds})
    meta = {iid: rng.random() < flagged for iid in range(300) if iid in ids or rng.random() < 0.1}
    return beliefs, meta, [rng.randrange(2) for _ in range(300)]


class TestColumnsMatchRowOracle:
    """The columnar path against the row-at-a-time one it replaced."""

    @pytest.mark.parametrize("rules", [None, OTHER_RULES], ids=["bundled", "other"])
    def test_same_facts_final_classes_csv_and_report(self, tmp_path, rules):
        program = None if rules is None else nmr.parse_program(rules)
        rng = random.Random(19)
        revised = 0
        for _ in range(300):
            beliefs, meta, truth = random_beliefs(rng)
            rows = belief_rows(beliefs)
            fact_base, row_fact_base = kb.encode(beliefs, meta), row_encode(rows, meta)
            assert fact_base == row_fact_base
            kb.serialize(fact_base, tmp_path / "a.lp")
            kb.serialize(row_fact_base, tmp_path / "b.lp")
            assert (tmp_path / "a.lp").read_bytes() == (tmp_path / "b.lp").read_bytes()

            finals = apply_revision(beliefs, fact_base, program)
            row_finals = row_apply_revision(rows, row_fact_base, program)
            assert [(f.classifier, f.instance_id, f.final_class, f.revised) for f in finals] == [
                (f.classifier, f.instance_id, f.final_class, f.revised) for f in row_finals]
            assert finals.csv_text() == row_final_beliefs_csv(rows, row_finals)
            report = build_report(finals, truth)
            row_report = row_build_report(rows, row_finals, dict(enumerate(truth)))
            assert format_kv(report_to_kv(report)) == format_kv(report_to_kv(row_report))
            revised += report.revised_total
        assert revised > 0

    @pytest.mark.parametrize("rules", BROKEN_RULES.values(), ids=BROKEN_RULES)
    def test_same_error_for_a_broken_rule_file(self, rules):
        program = nmr.parse_program(rules)
        rng = random.Random(23)
        for _ in range(20):
            beliefs, meta, _ = random_beliefs(rng)
            rows = belief_rows(beliefs)
            with pytest.raises(ValueError) as want:
                row_apply_revision(rows, row_encode(rows, meta), program)
            with pytest.raises(ValueError) as got:
                apply_revision(beliefs, kb.encode(beliefs, meta), program)
            assert str(got.value) == str(want.value)

    def test_same_error_for_missing_meta_and_ground_truth(self):
        beliefs = Beliefs([3, 5], {ClassifierKind.KNN: [1, 0], ClassifierKind.RF: [0, 1]})
        rows = belief_rows(beliefs)
        with pytest.raises(ValueError) as want:
            row_encode(rows, {3: True})
        with pytest.raises(ValueError) as got:
            kb.encode(beliefs, {3: True})
        assert str(got.value) == str(want.value)
        finals = apply_revision(beliefs, kb.encode(beliefs, {3: True, 5: False}))
        row_finals = row_apply_revision(rows, row_encode(rows, {3: True, 5: False}))
        with pytest.raises(ValueError) as want:
            row_build_report(rows, row_finals, {3: 0, 4: 1})
        with pytest.raises(ValueError) as got:
            build_report(finals, [1, 1, 1, 0, 1])
        assert str(got.value) == str(want.value)


class TestBeliefs:
    @pytest.mark.parametrize("ids,classes,message", [
        ([2, 1], {ClassifierKind.SVM: [0, 1]}, "increasing"),
        ([1, 1], {ClassifierKind.SVM: [0, 1]}, "increasing"),
        ([-1, 1], {ClassifierKind.SVM: [0, 1]}, "non-negative"),
        ([[1, 2]], {ClassifierKind.SVM: [[0, 1]]}, "flat vector"),
        ([1, 2], {ClassifierKind.SVM: [0, 2]}, "svm verdicts must be one 0 or 1 per id"),
        ([1, 2], {ClassifierKind.SVM: [0]}, "svm verdicts must be one 0 or 1 per id"),
        ([1, 2], {ClassifierKind.DT: [0, 1], ClassifierKind.SVM: [0, 1]}, "in the order svm"),
        ([1, 2], {}, "one or more classifiers"),
    ], ids=["descending", "repeated", "negative", "matrix", "class-2", "short-column",
            "kind-order", "no-classifier"])
    def test_rejects_bad_columns(self, ids, classes, message):
        with pytest.raises(ValueError, match=message):
            Beliefs(ids, classes)

    def test_columns_are_read_only_int64_copies(self):
        verdicts = np.array([1, 0], dtype=np.int8)
        beliefs = Beliefs([4, 9], {"knn": verdicts})
        verdicts[0] = 0
        assert list(beliefs.classes) == [ClassifierKind.KNN]  # the key "knn" as its kind
        assert beliefs.classes[ClassifierKind.KNN].tolist() == [1, 0]
        assert beliefs.ids.dtype == np.int64 and not beliefs.ids.flags.writeable
        assert len(beliefs) == 2


class TestBuildReport:
    def test_instance_178_style_false_positive_removal(self):
        # a truly legitimate instance flagged phishing by all four classifiers
        beliefs = Beliefs([178], {kind: [1] for kind in KIND_ORDER})
        finals = apply_revision(beliefs, kb.encode(beliefs, {178: True}))
        report = build_report(finals, [0] * 179)  # truth by id: 178 is legitimate
        for outcome in report.per_classifier.values():
            assert outcome.before.fp == 1
            assert outcome.after.fp == 0
            assert outcome.after.tn == 1
            assert outcome.revised_count == 1
        assert [(f.instance_id, f.revised) for f in finals] == [(178, True)] * 4
        assert report.revised_total == 4

    def test_no_meta_means_no_change(self):
        rng = random.Random(7)
        beliefs, _, truth = random_scenario(rng, 25)
        meta = {i: False for i in range(25)}
        finals = apply_revision(beliefs, kb.encode(beliefs, meta))
        report = build_report(finals, truth)
        for outcome in report.per_classifier.values():
            assert outcome.before == outcome.after
            assert outcome.revised_count == 0
        assert report.revised_total == 0

    def test_all_meta_all_phishing_withdraws_everything(self):
        n = 10
        beliefs = Beliefs(range(n), {k: [1] * n for k in KIND_ORDER})
        meta = {i: True for i in range(n)}
        truth = [i % 2 for i in range(n)]
        finals = apply_revision(beliefs, kb.encode(beliefs, meta))
        report = build_report(finals, truth)
        for outcome in report.per_classifier.values():
            assert outcome.after.fp == 0
            assert outcome.after.tp == 0
            assert outcome.revised_count == n

    def test_revised_count_identity(self):
        rng = random.Random(8)
        for _ in range(50):
            beliefs, meta, truth = random_scenario(rng, 12)
            finals = apply_revision(beliefs, kb.encode(beliefs, meta))
            report = build_report(finals, truth)
            for kind, outcome in report.per_classifier.items():
                expected = sum(
                    1
                    for i, c in zip(beliefs.ids.tolist(), beliefs.classes[kind].tolist())
                    if c == 1 and meta[i]
                )
                assert outcome.revised_count == expected

    def test_monotone_directions_and_delta_decomposition(self):
        rng = random.Random(9)
        for _ in range(100):
            beliefs, meta, truth = random_scenario(rng, 10)
            finals = apply_revision(beliefs, kb.encode(beliefs, meta))
            report = build_report(finals, truth)
            for outcome in report.per_classifier.values():
                before, after = outcome.before, outcome.after
                assert after.fp <= before.fp
                assert after.tn >= before.tn
                assert after.fn >= before.fn
                assert after.tp <= before.tp
                assert outcome.revised_count == (before.fp - after.fp) + (before.tp - after.tp)
                n = before.total
                delta = after.accuracy - before.accuracy
                assert delta == pytest.approx(
                    ((after.tn - before.tn) + (after.tp - before.tp)) / n
                )

    def test_instance_without_ground_truth_rejected(self):
        beliefs = Beliefs([0, 2], {ClassifierKind.SVM: [1, 1]})
        finals = apply_revision(beliefs, kb.encode(beliefs, {0: False, 2: False}))
        with pytest.raises(ValueError, match="no ground truth for instance 2"):
            build_report(finals, [1, 1])

    def test_totals_fraction(self):
        beliefs = Beliefs(range(5), {k: [1] * 5 for k in KIND_ORDER})
        meta = {i: i == 0 for i in range(5)}
        finals = apply_revision(beliefs, kb.encode(beliefs, meta))
        report = build_report(finals, [1] * 5)
        assert report.decisions_total == 20
        assert report.revised_total == 4
        assert report.revised_fraction == pytest.approx(0.2)


# hand-built report fixture: false positives fall for every classifier
REFERENCE_REPORT_KV = {}
for _kind, _fp_b, _fp_a, _rev in (
    ("svm", 41, 30, 113), ("knn", 47, 34, 114), ("dt", 69, 48, 120), ("rf", 49, 35, 118)
):
    _tn_b, _tn_a = 1143 - _fp_b, 1143 - _fp_a
    _tp_b = 1100
    _fn_b = 1143 - _tp_b
    _tp_a, _fn_a = _tp_b - (_rev - (_fp_b - _fp_a)), _fn_b + (_rev - (_fp_b - _fp_a))
    REFERENCE_REPORT_KV.update(
        {
            f"{_kind}.tp_before": str(_tp_b), f"{_kind}.fp_before": str(_fp_b),
            f"{_kind}.tn_before": str(_tn_b), f"{_kind}.fn_before": str(_fn_b),
            f"{_kind}.tp_after": str(_tp_a), f"{_kind}.fp_after": str(_fp_a),
            f"{_kind}.tn_after": str(_tn_a), f"{_kind}.fn_after": str(_fn_a),
            f"{_kind}.revised": str(_rev),
        }
    )
REFERENCE_REPORT_KV.update(
    {"total.revised": "465", "total.decisions": "9144", "total.fraction": "0.050853"}
)


class TestReportRendering:
    def test_kv_format_parse_round_trip(self):
        text = format_kv(REFERENCE_REPORT_KV)
        assert parse_kv(text) == REFERENCE_REPORT_KV
        assert format_kv(parse_kv(text)) == text

    def test_render_contains_fp_rows_in_order(self):
        text = render_report_text(REFERENCE_REPORT_KV)
        lines = text.splitlines()
        without = next(l for l in lines if "without nmr" in l)
        with_ = next(l for l in lines if "with nmr" in l)
        assert without.split()[-4:] == ["41", "47", "69", "49"]
        assert with_.split()[-4:] == ["30", "34", "48", "35"]
        header = next(l for l in lines if "svm" in l and "knn" in l and "dt" in l)
        assert header.split() == ["svm", "knn", "dt", "rf"]

    def test_render_parse_render_fixpoint(self):
        text = format_kv(REFERENCE_REPORT_KV)
        first = render_report_text(parse_kv(text))
        second = render_report_text(parse_kv(format_kv(parse_kv(text))))
        assert first == second

    def test_metrics_have_four_decimals(self):
        text = render_report_text(REFERENCE_REPORT_KV)
        svm_before = next(
            l for l in text.splitlines() if l.strip().startswith("svm") and "before" in l
        )
        cells = svm_before.split()
        assert cells[-4:] == [f"{float(v):.4f}" for v in cells[-4:]]

    def test_report_to_kv_round_trip_through_report(self):
        beliefs = Beliefs(range(6), {k: [(i + 1) % 2 for i in range(6)] for k in KIND_ORDER})
        meta = {i: i < 3 for i in range(6)}
        finals = apply_revision(beliefs, kb.encode(beliefs, meta))
        report = build_report(finals, [i % 2 for i in range(6)])
        kv = report_to_kv(report)
        assert kv["total.decisions"] == "24"
        rendered = render_report_text(kv)
        assert rendered == render_report_text(parse_kv(format_kv(kv)))

    def test_parse_kv_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_kv("a=1\nnonsense\n")
