from __future__ import annotations

import logging
import random

import pytest

from metaphish import kb
from metaphish.classifiers import Beliefs, ClassifierKind
from metaphish.kb import CLASS_TO_SYMBOL, SYMBOL_TO_CLASS, Fact, FactBase, encode, serialize

from _support import random_facts, reference_fact_base


class TestFact:
    def test_rejects_negative_integer(self):
        with pytest.raises(ValueError, match="non-negative"):
            FactBase([Fact("pred", ("svm", -1, "benign"))])

    def test_rejects_uppercase_symbol(self):
        with pytest.raises(ValueError, match="lowercase"):
            FactBase([Fact("pred", ("SVM", 1, "benign"))])

    def test_str_matches_serialized_form(self):
        assert str(Fact("pred", ("svm", 0, "benign"))) == "pred(svm,0,benign)"
        assert str(Fact("flag", ())) == "flag"


class TestEncode:
    def test_single_belief(self):
        beliefs = Beliefs([19], {ClassifierKind.RF: [1]})
        fb = encode(beliefs, {19: True})
        assert {str(f) for f in fb} == {"pred(rf,19,phishing)", "meta(19,yes)"}

    def test_empty_beliefs(self):
        assert len(encode(Beliefs([], {ClassifierKind.SVM: []}), {})) == 0

    @pytest.mark.parametrize("n", [10, 100, 2286])
    def test_cardinality_4n_plus_n(self, n):
        beliefs = Beliefs(range(n), {kind: [i % 2 for i in range(n)] for kind in ClassifierKind})
        fb = encode(beliefs, {i: i % 3 == 0 for i in range(n)})
        assert len(fb) == 5 * n
        preds = [f for f in fb if f.predicate == "pred"]
        metas = [f for f in fb if f.predicate == "meta"]
        assert len(preds) == 4 * n
        assert len(metas) == n
        if n == 2286:
            assert len(beliefs) == 9144
            assert len(fb) == 11430

    def test_class_symbol_mapping(self):
        beliefs = Beliefs([0], {ClassifierKind.SVM: [0], ClassifierKind.KNN: [1]})
        fb = encode(beliefs, {0: False})
        strings = {str(f) for f in fb}
        assert "pred(svm,0,benign)" in strings
        assert "pred(knn,0,phishing)" in strings
        assert "meta(0,no)" in strings

    def test_missing_meta_flag(self):
        with pytest.raises(ValueError, match="absent from meta flags"):
            encode(Beliefs([5], {ClassifierKind.DT: [1]}), {4: True})

    def test_symbol_round_trip(self):
        for cls, symbol in CLASS_TO_SYMBOL.items():
            assert SYMBOL_TO_CLASS[symbol] == cls
        assert set(CLASS_TO_SYMBOL) == {0, 1}
        assert set(SYMBOL_TO_CLASS) == {"benign", "phishing"}


class TestFactBase:
    def test_duplicate_pred_rejected(self):
        facts = [Fact("pred", ("svm", 1, "benign")), Fact("pred", ("svm", 1, "phishing"))]
        with pytest.raises(ValueError, match="duplicate pred"):
            FactBase(facts)

    def test_duplicate_meta_rejected(self):
        facts = [Fact("meta", (1, "yes")), Fact("meta", (1, "no"))]
        with pytest.raises(ValueError, match="duplicate meta"):
            FactBase(facts)

    def test_identical_facts_collapse(self):
        fb = FactBase([Fact("meta", (1, "yes")), Fact("meta", (1, "yes"))])
        assert len(fb) == 1

    def test_missing_meta_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="metaphish.kb"):
            FactBase([Fact("pred", ("svm", 3, "phishing"))])
        assert "without a meta fact" in caplog.text

    @pytest.mark.parametrize("facts", [
        [Fact("pred", ("svm", "x", "benign")), Fact("pred", ("svm", 1, "benign"))],
        [Fact("meta", ("x", "yes")), Fact("meta", (1, "no"))],
    ], ids=["pred", "meta"])
    def test_symbol_instance_id_rejected(self, facts):
        # a symbol id next to an integer one used to fail the sort with TypeError
        with pytest.raises(ValueError, match=r"instance id .* in (pred\(svm,x,benign\)|meta\(x,yes\))"):
            FactBase(facts)

    def test_atoms_are_sorted_and_typed(self):
        fb = FactBase(
            [
                Fact("pred", ("svm", 2, "benign")),
                Fact("meta", (2, "no")),
                Fact("pred", ("dt", 1, "phishing")),
                Fact("meta", (1, "yes")),
            ]
        )
        assert list(fb) == [
            ("meta", (1, "yes")),
            ("meta", (2, "no")),
            ("pred", ("dt", 1, "phishing")),
            ("pred", ("svm", 2, "benign")),
        ]


    def test_order_and_errors_match_reference(self):
        rng = random.Random(71)
        outcomes = set()
        for _ in range(5000):
            facts = random_facts(rng)
            try:
                want = reference_fact_base(facts)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    FactBase(facts)
                assert str(err.value) == str(exc)
                outcomes.add(str(exc).split(" ")[0])
                continue
            assert tuple(FactBase(facts)) == want
            outcomes.add("ok")
        assert outcomes == {"ok", "instance", "fact", "integer", "symbol", "duplicate"}


class TestSerialize:
    def test_single_fact_golden_bytes(self, tmp_path):
        path = tmp_path / "facts.lp"
        n = serialize(FactBase([Fact("pred", ("svm", 0, "benign"))]), path)
        assert path.read_bytes() == b"pred(svm,0,benign).\n"
        assert n == 20

    def test_empty_fact_base(self, tmp_path):
        path = tmp_path / "facts.lp"
        assert serialize(FactBase([]), path) == 0
        assert path.read_bytes() == b""

    def test_sorted_by_predicate_id_classifier(self, tmp_path):
        beliefs = Beliefs([0, 1], {ClassifierKind.SVM: [0, 1], ClassifierKind.DT: [1, 0]})
        path = tmp_path / "facts.lp"
        serialize(encode(beliefs, {0: False, 1: True}), path)
        assert path.read_text() == (
            "meta(0,no).\n"
            "meta(1,yes).\n"
            "pred(dt,0,phishing).\n"
            "pred(svm,0,benign).\n"
            "pred(dt,1,benign).\n"
            "pred(svm,1,phishing).\n"
        )

    def test_round_trip_through_parser(self, tmp_path):
        beliefs = Beliefs(range(7), {kind: [(i + j) % 2 for i in range(7)]
                                     for j, kind in enumerate(ClassifierKind)})
        meta = {i: i % 2 == 0 for i in range(7)}
        fb = encode(beliefs, meta)
        path = tmp_path / "facts.lp"
        serialize(fb, path)
        recovered = kb.load_facts(path)
        assert recovered == fb
        # the encoding is a bijection: beliefs and meta come back exactly
        beliefs_back = {
            (ClassifierKind(f.arguments[0]), f.arguments[1], SYMBOL_TO_CLASS[f.arguments[2]])
            for f in recovered
            if f.predicate == "pred"
        }
        assert beliefs_back == {
            (kind, i, (i + j) % 2) for j, kind in enumerate(ClassifierKind) for i in range(7)
        }
        meta_back = {
            f.arguments[0]: f.arguments[1] == "yes"
            for f in recovered
            if f.predicate == "meta"
        }
        assert meta_back == meta

    def test_byte_stable(self, tmp_path):
        beliefs = Beliefs(range(20), {ClassifierKind.KNN: [i % 2 for i in range(20)]})
        fb = encode(beliefs, {i: True for i in range(20)})
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        serialize(fb, a)
        serialize(fb, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_facts_rejects_rules(self, tmp_path):
        path = tmp_path / "rules.lp"
        path.write_text("a :- b.\n")
        with pytest.raises(ValueError, match="not a ground fact"):
            kb.load_facts(path)

    def test_load_facts_names_file_and_fact_of_bad_id(self, tmp_path):
        path = tmp_path / "facts.lp"
        path.write_text("meta(1,yes).\npred(svm,1,benign).\npred(svm,x,benign).\n")
        with pytest.raises(ValueError, match=r"facts\.lp: instance id .* in pred\(svm,x,benign\)"):
            kb.load_facts(path)
