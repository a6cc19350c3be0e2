from __future__ import annotations

import csv
import random

import pytest

from metaphish import kb
from metaphish.classifiers import KIND_ORDER, Beliefs, ClassifierKind
from metaphish.dataset import load_dataset
from metaphish.kb import CLASS_TO_SYMBOL, SYMBOL_TO_CLASS, Fact, encode, serialize

from _support import FIXTURE_CSV, random_scenario


class TestFact:
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


class TestSerialize:
    def test_single_fact_golden_bytes(self, tmp_path):
        path = tmp_path / "facts.lp"
        n = serialize((Fact("pred", ("svm", 0, "benign")),), path)
        assert path.read_bytes() == b"pred(svm,0,benign).\n"
        assert n == 20

    def test_empty_facts(self, tmp_path):
        path = tmp_path / "facts.lp"
        assert serialize((), path) == 0
        assert path.read_bytes() == b""
        assert kb.load_facts(path) == ()

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


# the lines of the file TestLoadFacts damages: encode's facts for ids 0, 2 and 5
BASE_LINES = [
    "meta(0,yes).", "meta(2,no).", "meta(5,yes).",
    "pred(dt,0,phishing).", "pred(knn,0,benign).", "pred(rf,0,phishing).", "pred(svm,0,benign).",
    "pred(dt,2,benign).", "pred(knn,2,benign).", "pred(rf,2,phishing).", "pred(svm,2,phishing).",
    "pred(dt,5,phishing).", "pred(knn,5,phishing).", "pred(rf,5,benign).", "pred(svm,5,benign).",
]


def _line(number, edit):
    """A fault: ``edit`` applied to the text of line ``number`` (1-based)."""
    def apply(lines):
        lines[number - 1] = edit(lines[number - 1])
        return lines
    return apply


def _swap(number):
    def apply(lines):
        lines[number - 1], lines[number] = lines[number], lines[number - 1]
        return lines
    return apply


# fault -> (edit of the list of lines, the line named, a part of the message)
FACT_FAULTS = {
    "dropped-period": (_line(4, lambda l: l[:-1]), 4, "not a meta(<id>,yes|no). or pred("),
    "swapped-pair": (_swap(4), 5, "pred(dt,0,phishing). is out of facts.lp order, after line 4"),
    "meta-after-pred": (_swap(3), 4, "meta(5,yes). is out of facts.lp order"),
    "duplicate": (lambda lines: lines[:5] + lines[4:], 6, "pred(knn,0,benign). has the key of line 5"),
    "duplicate-key": (lambda lines: lines[:5] + ["pred(knn,0,phishing)."] + lines[5:], 6,
                      "has the key of line 5"),
    "duplicate-meta": (lambda lines: lines[:1] + ["meta(0,no)."] + lines[1:], 2,
                       "meta(0,no). has the key of line 1"),
    "unknown-class": (_line(5, lambda l: l.replace("benign", "maybe")), 5, "'pred(knn,0,maybe).'"),
    "unknown-classifier": (_line(5, lambda l: l.replace("knn", "xgb")), 5, "'pred(xgb,0,benign).'"),
    "uppercase-classifier": (_line(5, str.upper), 5, "'PRED(KNN,0,BENIGN).'"),
    "negative-id": (_line(4, lambda l: l.replace(",0,", ",-1,")), 4, "'pred(dt,-1,phishing).'"),
    "leading-zero-id": (_line(1, lambda l: l.replace("0", "00")), 1, "'meta(00,yes).'"),
    "symbol-id": (_line(2, lambda l: l.replace("2", "x")), 2, "'meta(x,no).'"),
    "variable-id": (_line(4, lambda l: l.replace(",0,", ",X,")), 4, "'pred(dt,X,phishing).'"),
    "space": (_line(4, lambda l: l.replace(",0,", ", 0,")), 4, "'pred(dt, 0,phishing).'"),
    "rule": (_line(5, lambda l: "revise(knn,0) :- pred(knn,0,phishing)."), 5, "'revise(knn,0)"),
    "pred-without-meta": (lambda lines: lines[:1] + lines[2:], 7,
                          "pred(dt,2,benign). has no meta fact for instance 2"),
    "blank-line": (lambda lines: lines[:3] + [""] + lines[3:], 4, "fact: ''"),
    "crlf": (lambda lines: [l + "\r" for l in lines], 1, "fact: 'meta(0,yes).\\r'"),
    "non-ascii": (_line(3, lambda l: l.replace("yes", "y\u00e9s")), 3, "'meta(5,y\ufffd\ufffds).'"),
    "no-last-line-end": (lambda lines: lines + ["pred(svm,5,benign)x"], 16,
                         "'pred(svm,5,benign)x' has no line end"),
}


class TestLoadFacts:
    def test_reads_back_what_encode_built(self, tmp_path):
        rng = random.Random(18)
        path = tmp_path / "facts.lp"
        for n in (0, 1, 7, 300):
            beliefs, meta, _ = random_scenario(rng, n)
            facts = encode(beliefs, meta)
            serialize(facts, path)
            assert kb.load_facts(path) == facts
            assert all(type(fact) is Fact for fact in kb.load_facts(path))

    def test_reads_the_fixture_run_as_encode_built_it(self, pipeline_run):
        # the beliefs are the initial verdicts of final_beliefs.csv, the meta
        # flags the fixture's meta column
        with open(pipeline_run / "final_beliefs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ids = sorted({int(row["id"]) for row in rows})
        classes = {kind: [None] * len(ids) for kind in KIND_ORDER}
        for row in rows:
            classes[ClassifierKind(row["classifier"])][ids.index(int(row["id"]))] = \
                SYMBOL_TO_CLASS[row["initial"]]
        meta = load_dataset(FIXTURE_CSV).meta
        facts = encode(Beliefs(ids, classes), {iid: bool(meta[iid]) for iid in ids})
        assert kb.load_facts(pipeline_run / "facts.lp") == facts

    def test_base_lines_are_encode_facts(self, tmp_path):
        path = tmp_path / "facts.lp"
        path.write_text("".join(line + "\n" for line in BASE_LINES))
        assert [str(fact) + "." for fact in kb.load_facts(path)] == BASE_LINES

    @pytest.mark.parametrize("fault", FACT_FAULTS)
    def test_damaged_line_is_named(self, tmp_path, fault):
        edit, number, message = FACT_FAULTS[fault]
        path = tmp_path / "facts.lp"
        lines = edit(list(BASE_LINES))
        assert lines != BASE_LINES
        text = "".join(line + "\n" for line in lines)
        path.write_bytes(text.removesuffix("\n" if fault == "no-last-line-end" else "")
                         .encode("utf-8"))
        with pytest.raises(ValueError) as err:
            kb.load_facts(path)
        assert str(err.value).startswith(f"{path}, line {number}: "), str(err.value)
        assert message in str(err.value)
