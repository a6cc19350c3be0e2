from __future__ import annotations

import csv
import random

import numpy as np
import pytest

from metaphish import kb, nmr
from metaphish.classifiers import KIND_ORDER, Beliefs, ClassifierKind
from metaphish.dataset import load_dataset
from metaphish.kb import CLASS_TO_SYMBOL, SYMBOL_TO_CLASS, encode, serialize

from _support import FIXTURE_CSV, atom_serialize, random_scenario, relations_of


def _texts(facts):
    return [nmr.format_ground_atom(atom) for atom in facts]


def _assert_same_columns(read, built):
    """``read`` holds ``built``'s tables, as int64 columns, and its symbol table."""
    assert read.symbols == built.symbols
    assert list(read.tables) == list(built.tables)
    for pred, table in built.tables.items():
        assert read.tables[pred].dtype == np.int64
        assert np.array_equal(read.tables[pred], table), pred


class TestEncode:
    def test_single_belief(self):
        beliefs = Beliefs([19], {ClassifierKind.RF: [1]})
        fb = encode(beliefs, {19: True})
        assert type(fb) is nmr.Relations
        assert set(_texts(fb)) == {"pred(rf,19,phishing)", "meta(19,yes)"}

    def test_empty_beliefs(self):
        assert len(encode(Beliefs([], {ClassifierKind.SVM: []}), {})) == 0

    @pytest.mark.parametrize("n", [10, 100, 2286])
    def test_cardinality_4n_plus_n(self, n):
        beliefs = Beliefs(range(n), {kind: [i % 2 for i in range(n)] for kind in ClassifierKind})
        fb = encode(beliefs, {i: i % 3 == 0 for i in range(n)})
        assert len(fb) == 5 * n
        assert fb.tables["pred"].shape == (4 * n, 3)
        assert fb.tables["meta"].shape == (n, 2)
        if n == 2286:
            assert len(beliefs) == 9144
            assert len(fb) == 11430

    def test_class_symbol_mapping(self):
        beliefs = Beliefs([0], {ClassifierKind.SVM: [0], ClassifierKind.KNN: [1]})
        fb = encode(beliefs, {0: False})
        strings = set(_texts(fb))
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
        n = serialize(relations_of([("pred", ("svm", 0, "benign"))]), path)
        assert path.read_bytes() == b"pred(svm,0,benign).\n"
        assert n == 20

    def test_empty_facts(self, tmp_path):
        path = tmp_path / "facts.lp"
        assert serialize(nmr.Relations(), path) == 0
        assert path.read_bytes() == b""
        assert list(kb.load_facts(path)) == []

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
        _assert_same_columns(recovered, fb)
        # the encoding is a bijection: beliefs and meta come back exactly
        beliefs_back = {
            (ClassifierKind(cl), iid, SYMBOL_TO_CLASS[cls])
            for cl, iid, cls in recovered.decode(recovered.tables["pred"])
        }
        assert beliefs_back == {
            (kind, i, (i + j) % 2) for j, kind in enumerate(ClassifierKind) for i in range(7)
        }
        meta_back = {iid: flag == "yes" for iid, flag in recovered.decode(recovered.tables["meta"])}
        assert meta_back == meta

    def test_same_bytes_as_one_fact_at_a_time(self, tmp_path):
        # the two line shapes against the per-fact writer, on encode's facts
        rng = random.Random(25)
        for n in (0, 1, 9, 200):
            beliefs, meta, _ = random_scenario(rng, n)
            facts = encode(beliefs, meta)
            assert serialize(facts, tmp_path / "a.lp") == atom_serialize(tuple(facts),
                                                                         tmp_path / "b.lp")
            assert (tmp_path / "a.lp").read_bytes() == (tmp_path / "b.lp").read_bytes()

    def test_ids_past_the_self_coded_range_print_as_digits(self, tmp_path):
        # ids of 2**62 or more are symbols, mixed here with self-coded ids
        rng = random.Random(28)
        for n in (1, 9, 200):
            ids = sorted({*rng.sample(range(2**62 - 3, 2**62 + 3), 3),
                          *(rng.randrange(2**62, 2**63) for _ in range(n))})
            classes = {kind: [rng.randrange(2) for _ in ids] for kind in KIND_ORDER}
            facts = encode(Beliefs(ids, classes), {iid: rng.random() < 0.5 for iid in ids})
            assert (facts.tables["meta"][:, 0] < 0).any()
            assert serialize(facts, tmp_path / "a.lp") == atom_serialize(tuple(facts),
                                                                         tmp_path / "b.lp")
            assert (tmp_path / "a.lp").read_bytes() == (tmp_path / "b.lp").read_bytes()
            assert f"meta({ids[-1]},".encode() in (tmp_path / "a.lp").read_bytes()

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
        for n in (0, 1, 7, 300, *(rng.randint(1, 40) for _ in range(100))):
            beliefs, meta, _ = random_scenario(rng, n)
            facts = encode(beliefs, meta)
            serialize(facts, path)
            read = kb.load_facts(path)
            assert type(read) is nmr.Relations
            assert list(read) == list(facts)
            if n:  # with no pred line, no classifier symbol is read
                _assert_same_columns(read, facts)

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
        _assert_same_columns(kb.load_facts(pipeline_run / "facts.lp"), facts)

    def test_ids_past_the_self_coded_range_keep_encode_symbols(self, tmp_path):
        # an id of 2**62 or more is a symbol, coded after kb.SYMBOLS on both sides
        ids = [5, 2**62, 2**63 - 1]
        beliefs = Beliefs(ids, {ClassifierKind.SVM: [1, 0, 1], ClassifierKind.RF: [0, 1, 1]})
        facts = encode(beliefs, dict(zip(ids, (True, False, True))))
        path = tmp_path / "facts.lp"
        serialize(facts, path)
        read = kb.load_facts(path)
        assert read.symbols == [*kb.SYMBOLS, 2**62, 2**63 - 1, "rf", "svm"]
        _assert_same_columns(read, facts)

    def test_base_lines_are_encode_facts(self, tmp_path):
        path = tmp_path / "facts.lp"
        path.write_text("".join(line + "\n" for line in BASE_LINES))
        assert [text + "." for text in _texts(kb.load_facts(path))] == BASE_LINES

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
