from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metaphish import cli, kb, nmr, revision
from metaphish.classifiers import DEFAULT_GRIDS, Beliefs, ClassifierKind
from metaphish.cli import main
from metaphish.dataset import extract_meta_presence
from metaphish.revision import parse_kv

from _support import FIXTURE_CSV, dict_reader_manifest, edit_row, set_cell
from test_classifiers import PINNED_ARTIFACTS

DATASET_ARGS = ["--dataset", str(FIXTURE_CSV)]
MODEL_FILES = ("model_svm.json", "model_knn.json", "model_dt.json", "model_rf.json")
# the label of a tree's first leaf: the label sequence holds one entry per leaf
FIRST_LEAF_LABEL = re.compile(rb'("label":\s*\[)[01]')
FORMAT_VALUE = re.compile(rb'("format":\s*")')


def _copy_run(run_dir, out, *extra):
    """A fresh output directory holding the models, manifest and ``extra`` files of ``run_dir``."""
    out.mkdir()
    for name in (*MODEL_FILES, "split_manifest.csv", "run_inputs.kv", *extra):
        (out / name).write_bytes((run_dir / name).read_bytes())
    return out


def _files(directory):
    """The name and bytes of each file in ``directory``."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestTrain:
    def test_artifacts_written(self, pipeline_run):
        for name in (*MODEL_FILES, "split_manifest.csv", "cv_summary.kv", "run_config.kv"):
            assert (pipeline_run / name).is_file(), name

    def test_manifest_partitions_ids(self, pipeline_run):
        with open(pipeline_run / "split_manifest.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert {r["role"] for r in rows} == {"train", "test"}
        assert sum(r["role"] == "test" for r in rows) == 40
        folds = {int(r["fold"]) for r in rows if r["role"] == "train"}
        assert folds == {0, 1, 2, 3, 4}

    def test_run_inputs_fingerprint_features_and_labels(self, pipeline_run, pipeline_rerun):
        text = (pipeline_run / "run_inputs.kv").read_text()
        assert set(parse_kv(text)) == {"rows", "x_sha256", "y_sha256"}
        assert parse_kv(text)["rows"] == "200"
        # no path in it: a run into another directory writes the same bytes
        assert (pipeline_rerun / "run_inputs.kv").read_text() == text

    def test_repeat_run_is_byte_identical(self, pipeline_run, pipeline_rerun):
        for name in (*MODEL_FILES, "split_manifest.csv"):
            assert (pipeline_run / name).read_bytes() == (pipeline_rerun / name).read_bytes()

    @pytest.mark.parametrize("args,message", [
        (["--grid-search", "--folds", "150"],
         "--folds 150 is more than the train rows of the smaller class allow: "
         "pass --folds 80 or fewer"),
        (["--grid-search", "--folds", "81"],
         "--folds 81 is more than the train rows of the smaller class allow: "
         "pass --folds 80 or fewer"),
        (["--folds", "500"], "--folds 500 is more than the train rows allow: pass --folds 160 or fewer"),
        (["--folds", "161"], "--folds 161 is more than the train rows allow: pass --folds 160 or fewer"),
    ], ids=["grid-150", "grid-81", "500", "161"])
    def test_too_many_folds_is_usage_error_before_any_write(self, tmp_path, capsys, args, message):
        # 160 train rows, 80 of the smaller class: 150 folds wrote the manifest
        # and run inputs, then ended in exit 1 on a fold of a single class
        out = tmp_path / "out"
        assert main(["train", *DATASET_ARGS, *args, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows,args,message", [
        ("header-only", ["--grid-search"], "a header but no data rows; fix the dataset"),
        ("phishing-only", ["--grid-search"], "the train rows of the smaller class number 0, "
         "too few for 2 folds, the fewest; pass --best-config or a smaller --test-fraction, "
         "or fix the dataset"),
        ("one-phishing", ["--grid-search"], "the train rows of the smaller class number 1,"),
        ("one-row", ["--best-config"], "the train rows number 1, too few for 2 folds, the "
         "fewest; pass a smaller --test-fraction, or fix the dataset"),
        ("one-per-class", ["--folds", "2"], "--test-fraction 0.2 puts none of its 2 rows in "
         "the test set; pass a larger --test-fraction"),
        ("all", ["--test-fraction", "0.001", "--classifier", "dt"], "--test-fraction 0.001 "
         "puts none of its 200 rows in the test set; pass a larger --test-fraction"),
    ], ids=["header-only-grid", "phishing-only-grid", "one-phishing-grid", "one-row-best",
            "no-test-row-of-2", "no-test-row-of-200"])
    def test_dataset_too_small_to_split_is_named(self, tmp_path, capsys, rows, args, message):
        # the header-only and one-class grid searches ended in exit 1; the
        # one-row and one-phishing runs advised --folds 1, under the least of
        # 2; the last two wrote a manifest with no test row and exited 0
        # (DATASET_FAULTS holds the header-only file without --grid-search)
        header, *lines = FIXTURE_CSV.read_text().splitlines()
        phishing = [line for line in lines if ",phishing," in line]
        legitimate = [line for line in lines if ",phishing," not in line]
        kept = {"header-only": [], "phishing-only": phishing, "one-row": lines[:1],
                "one-phishing": legitimate + phishing[:1],
                "one-per-class": phishing[:1] + legitimate[:1], "all": lines}[rows]
        dataset = tmp_path / "data.csv"
        dataset.write_text("".join(f"{line}\n" for line in (header, *kept)))
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(dataset), *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {dataset}: {message}" in err, err
        assert not re.search(r"--folds [01]\b", err), err
        assert not out.exists()

    def test_missing_dataset_is_usage_error(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "dataset" in err

    def test_nonexistent_dataset_is_usage_error(self, tmp_path):
        rc = main(["train", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("below", [(), ("run",)], ids=["file", "below-a-file"])
    def test_out_in_the_way_of_a_file_is_usage_error(self, tmp_path, capsys, below):
        # --out naming a file ended in exit 1 with "[Errno 17] File exists",
        # and a path below a file with "[Errno 20] Not a directory"
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken.joinpath(*below)
        assert main(["train", *DATASET_ARGS, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --out {out}: a file is in the way of this directory; " \
               f"pass a directory path or move the file" in err, err
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("error", [PermissionError(13, "Permission denied"),
                                       FileNotFoundError(2, "No such file or directory")],
                             ids=["permission", "not-found"])
    def test_out_that_cannot_be_created_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       error):
        # any other failure to create --out (a read-only or pseudo file system,
        # no permission) ended in exit 1 with the bare OS text
        def refuse(self, *args, **kwargs):
            raise error

        out = tmp_path / "out"
        monkeypatch.setattr(Path, "mkdir", refuse)
        assert main(["train", *DATASET_ARGS, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --out {out}: cannot create this directory ({error.strerror}); " in err, err
        assert not out.exists()

    def test_corrupt_dataset_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        header, first_row = FIXTURE_CSV.read_text().splitlines()[:2]
        cells = first_row.split(",")
        cells[3] = "oops"
        bad.write_text(header + "\n" + ",".join(cells) + "\n")
        rc = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["train", "--bogus"]) == 2

    def test_single_classifier_selection(self, tmp_path):
        out = tmp_path / "dt_only"
        rc = main(["train", *DATASET_ARGS, "--out", str(out), "--classifier", "dt"])
        assert rc == 0
        assert (out / "model_dt.json").is_file()
        assert not (out / "model_svm.json").exists()

    def test_grid_search_path(self, tmp_path):
        out = tmp_path / "grid"
        rc = main(["train", *DATASET_ARGS, "--out", str(out),
                   "--classifier", "knn", "--grid-search"])
        assert rc == 0
        summary = parse_kv((out / "cv_summary.kv").read_text())
        assert summary["knn.source"] == "grid-search"
        assert 0.0 <= float(summary["knn.cv_accuracy"]) <= 1.0
        assert summary["knn.param.k"] in {"3", "5", "7", "9"}


class TestRevise:
    def test_outputs_written(self, pipeline_run):
        for name in ("facts.lp", "final_beliefs.csv", "report.txt", "report.kv"):
            assert (pipeline_run / name).is_file(), name

    def test_facts_identity_check(self, pipeline_run):
        # derived check: recompute revised counts from facts.lp alone
        facts = kb.load_facts(pipeline_run / "facts.lp")
        meta_yes = {args[0] for pred, args in facts if pred == "meta" and args[1] == "yes"}
        expected = {}
        for pred, args in facts:
            if pred == "pred" and args[2] == "phishing" and args[1] in meta_yes:
                expected[args[0]] = expected.get(args[0], 0) + 1
        kv = parse_kv((pipeline_run / "report.kv").read_text())
        for cl in ("svm", "knn", "dt", "rf"):
            assert int(kv[f"{cl}.revised"]) == expected.get(cl, 0)

    def test_revise_builds_no_ground_rule(self, pipeline_run, tmp_path, monkeypatch):
        # revise reads only the model of the ground program; its rules are
        # enumerated when read, so none is built here
        made = []

        class CountedGroundRule(nmr.GroundRule):
            def __new__(cls, *args):
                made.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(nmr, "GroundRule", CountedGroundRule)
        out = _copy_run(pipeline_run, tmp_path / "out")
        assert main(["revise", *DATASET_ARGS, "--out", str(out)]) == 0
        assert made == []
        for name in ("facts.lp", "final_beliefs.csv", "report.kv"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == PINNED_ARTIFACTS[name], name

    def test_revise_builds_no_fact_and_decodes_no_model(self, pipeline_run, tmp_path,
                                                         monkeypatch):
        # revise keeps facts and derived atoms in integer-coded columns from
        # kb.encode to final_beliefs.csv: no column set is iterated into
        # atoms, and the model's atom set is never decoded
        iterated, decoded = [], []
        iterate = nmr.Relations.__iter__

        def counted_iter(self):
            iterated.append(self)
            return iterate(self)

        def atoms(self):
            decoded.append(self)
            return set(self.relations)

        monkeypatch.setattr(nmr.Relations, "__iter__", counted_iter)
        monkeypatch.setattr(nmr.AnswerSet, "atoms", property(atoms))
        out = _copy_run(pipeline_run, tmp_path / "out")
        assert main(["revise", *DATASET_ARGS, "--out", str(out)]) == 0
        assert iterated == [] and decoded == []
        for name in ("facts.lp", "final_beliefs.csv", "report.kv"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == PINNED_ARTIFACTS[name], name
        beliefs = Beliefs([7], {ClassifierKind.SVM: [1]})
        facts = kb.encode(beliefs, {7: True})
        assert list(map(nmr.format_ground_atom, facts)) == ["meta(7,yes)", "pred(svm,7,phishing)"]
        assert ("revise", ("svm", 7)) in nmr.ground(revision.revision_program(), facts).model.atoms
        assert len(iterated) == 2 and len(decoded) == 1  # what runs on demand is counted

    def test_revise_builds_no_decision_row(self, pipeline_run, tmp_path, monkeypatch):
        # revise keeps its beliefs in columns from prediction to report; a
        # Decision row is made only when a caller iterates the final beliefs
        made = []

        class CountedDecision(revision.Decision):
            def __new__(cls, *args):
                made.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(revision, "Decision", CountedDecision)
        out = _copy_run(pipeline_run, tmp_path / "out")
        assert main(["revise", *DATASET_ARGS, "--out", str(out)]) == 0
        assert made == []
        for name in ("facts.lp", "final_beliefs.csv", "report.kv"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == PINNED_ARTIFACTS[name], name
        beliefs = Beliefs([7], {ClassifierKind.SVM: [1]})
        finals = revision.apply_revision(beliefs, kb.encode(beliefs, {7: True}))
        assert [f.revised for f in finals] == [True]
        assert made == [(7, ClassifierKind.SVM, 1, 0, True)]  # rows made on demand are counted

    def test_fact_counts(self, pipeline_run):
        facts = kb.load_facts(pipeline_run / "facts.lp")
        assert len(facts.tables["pred"]) == 4 * 40
        assert len(facts.tables["meta"]) == 40

    def test_final_beliefs_consistent(self, pipeline_run):
        with open(pipeline_run / "final_beliefs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 160
        assert set(rows[0]) == {"id", "classifier", "initial", "final", "revised"}
        for row in rows:
            assert row["initial"] in ("benign", "phishing")
            assert row["final"] in ("benign", "phishing")
            assert (row["initial"] != row["final"]) == (row["revised"] == "1")
            if row["revised"] == "1":
                assert row["initial"] == "phishing" and row["final"] == "benign"

    def test_byte_identical_across_runs(self, pipeline_run, pipeline_rerun):
        for name in ("facts.lp", "final_beliefs.csv", "report.kv"):
            assert (pipeline_run / name).read_bytes() == (pipeline_rerun / name).read_bytes()

    def test_without_train_is_usage_error(self, tmp_path, capsys):
        rc = main(["revise", *DATASET_ARGS, "--out", str(tmp_path / "fresh")])
        assert rc == 2
        assert "train" in capsys.readouterr().err

    def test_all_no_meta_leaves_report_unchanged(self, pipeline_run, tmp_path, capsys):
        # a page without meta tags for every instance means meta absent everywhere
        bare = tmp_path / "snapshots"
        bare.mkdir()
        with open(pipeline_run / "split_manifest.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                (bare / f"{r['id']}.html").write_text("<html><body>no meta</body></html>")
        out = _copy_run(pipeline_run, tmp_path / "out")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out), "--snapshot-dir", str(bare)])
        assert rc == 0
        kv = parse_kv((out / "report.kv").read_text())
        assert kv["total.revised"] == "0"
        for cl in ("svm", "knn", "dt", "rf"):
            for cell in ("tp", "fp", "tn", "fn"):
                assert kv[f"{cl}.{cell}_before"] == kv[f"{cl}.{cell}_after"]

    def test_snapshot_dir_supplies_meta(self, pipeline_run, tmp_path):
        snapshots = tmp_path / "pages"
        snapshots.mkdir()
        with open(pipeline_run / "split_manifest.csv", newline="") as fh:
            test_ids = [int(r["id"]) for r in csv.DictReader(fh) if r["role"] == "test"]
        for rid in test_ids:
            (snapshots / f"{rid}.html").write_text(
                '<meta name="description" content="present">'
            )
        out = _copy_run(pipeline_run, tmp_path / "out")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out), "--snapshot-dir", str(snapshots)])
        assert rc == 0
        kv = parse_kv((out / "report.kv").read_text())
        # meta everywhere: every phishing prediction must have been withdrawn
        for cl in ("svm", "knn", "dt", "rf"):
            assert kv[f"{cl}.fp_after"] == "0"
            assert kv[f"{cl}.tp_after"] == "0"

    def test_revise_encodes_once_and_never_solves(self, pipeline_run, tmp_path, monkeypatch):
        # the verdicts come from the model ground() builds over the facts.lp fact base
        calls = {"encode": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kb, "encode", counted("encode", kb.encode))
        monkeypatch.setattr(nmr, "solve", counted("solve", nmr.solve))
        out = _copy_run(pipeline_run, tmp_path / "out")
        assert main(["revise", *DATASET_ARGS, "--out", str(out)]) == 0
        assert calls == {"encode": 1, "solve": 0}
        for name in ("facts.lp", "final_beliefs.csv"):
            assert (out / name).read_bytes() == (pipeline_run / name).read_bytes()

    @pytest.mark.parametrize("text,message", [
        (None, "rule file not found: "),
        ("final(CL,ID,C) :- pred(CL,ID,C)\n", "rules.lp:2:1: expected '.', found 'end of input'"),
        ("final(CL,ID,C) :- not pred(CL,ID,C).\n", "rules.lp: unsafe variable"),
        ("final(CL,ID,C) :- pred(CL,ID,C), not final(CL,ID,C).\n", "rules.lp: program is not stratified"),
        ("revise(CL,ID) :- pred(CL,ID), meta(ID,yes).\n",
         "rules.lp: predicate 'pred' used with arity 2"),
        # these parse and ground, but derive no usable final/3 atom per belief
        ("% no rules\n", "rules.lp: rule program derived no final belief"),
        ("revise(C,I) :- pred(C,I,phishing), meta(I,yes).\n",
         "rules.lp: rule program derived no final belief"),
        ("final(C,I) :- pred(C,I,X).\n", "rules.lp: unexpected arity for final atom final("),
        ("final(C,I,maybe) :- pred(C,I,X).\n",
         "rules.lp: unknown class symbol 'maybe' in final atom"),
        ("final(C,I,benign) :- pred(C,I,X).\nfinal(C,I,phishing) :- pred(C,I,X).\n",
         "rules.lp: conflicting final beliefs derived for"),
        # the bundled rules and one more final/3 atom, for no decision of the beliefs
        (revision.default_rules_text() + "final(x,1,benign).\n",
         "rules.lp: rule program derived a final belief for classifier 'x', instance 1, "
         "which is not a decision"),
        (revision.default_rules_text() + "final(svm,1000,benign).\n",
         "rules.lp: rule program derived a final belief for classifier 'svm', instance 1000,"),
        (b"final(C,I,X) :- pred(C,I,X). % \xff\n", "rules.lp: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["missing", "parse-error", "unsafe", "not-stratified", "arity-clash", "empty",
            "no-final", "final-arity-2", "unknown-class-symbol", "conflicting-finals",
            "final-of-unknown-classifier", "final-outside-test-ids", "not-utf-8"])
    def test_bad_rule_file_is_usage_error(self, pipeline_run, tmp_path, capsys, text, message):
        rules = tmp_path / "rules.lp"
        if text is not None:
            rules.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = _copy_run(pipeline_run, tmp_path / "out", "facts.lp", "final_beliefs.csv")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out), "--rules", str(rules)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and str(rules) in err and "fix the rule file" in err
        for name in ("facts.lp", "final_beliefs.csv"):
            assert (out / name).read_bytes() == (pipeline_run / name).read_bytes(), name

    @pytest.mark.parametrize("text,message", [
        ("final(C,I,benign) :- pred(C,I,X).\nfinal(C,I,phishing) :- pred(C,I,X).\n",
         "conflicting final beliefs derived for ('svm', {first})"),
        ("final(C,I) :- pred(C,I,X).\n", "unexpected arity for final atom final(svm,{first})"),
        ("final(C,I,M) :- pred(C,I,X), meta(I,M).\n",
         "unknown class symbol '{meta}' in final atom final(svm,{first},{meta})"),
    ], ids=["conflicting-finals", "final-arity-2", "unknown-class-symbol"])
    def test_rule_error_is_independent_of_hash_seed(self, pipeline_run, tmp_path, text, message):
        # the model's atoms iterate in hash order; the message names the first
        # offending atom in final_beliefs.csv order whatever the seed
        rules = tmp_path / "rules.lp"
        rules.write_text(text)
        out = _copy_run(pipeline_run, tmp_path / "out")
        with open(out / "split_manifest.csv", newline="") as fh:
            first = min(int(row["id"]) for row in csv.DictReader(fh) if row["role"] == "test")
        meta = re.search(rf"^meta\({first},(\w+)\)\.$", (pipeline_run / "facts.lp").read_text(),
                         re.MULTILINE)[1]
        src = str(Path(cli.__file__).resolve().parents[1])
        errors = set()
        for seed in (1, 2):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            result = subprocess.run([sys.executable, "-m", "metaphish", "revise", *DATASET_ARGS,
                                     "--out", str(out), "--rules", str(rules)],
                                    env=env, capture_output=True, text=True)
            assert result.returncode == 2, result.stderr
            errors.add(result.stderr.splitlines()[-1])
        message = message.format(first=first, meta=meta)
        assert errors == {f"error: {rules}: {message}; fix the rule file"}

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:1],
        lambda lines: [l.replace(",test,", ",train,0") for l in lines],
    ], ids=["header-only", "no-test-role"])
    def test_manifest_without_test_rows_is_usage_error(self, pipeline_run, tmp_path, capsys, edit):
        out = _copy_run(pipeline_run, tmp_path / "out")
        manifest = out / "split_manifest.csv"
        manifest.write_text("\n".join(edit(manifest.read_text().splitlines())) + "\n")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "no test rows" in err and "--test-fraction" in err
        assert not (out / "final_beliefs.csv").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda raw: raw[:300], "Expecting"),
        (lambda raw: FORMAT_VALUE.sub(rb"\g<1>x", raw, count=1), "not a model file"),
        (lambda raw: raw.replace(b'"state"', b'"stat"'), "missing key 'state'"),
    ], ids=["truncated", "wrong-format", "missing-key"])
    def test_unusable_model_file_is_usage_error(self, pipeline_run, tmp_path, capsys, edit, message):
        out = _copy_run(pipeline_run, tmp_path / "out")
        model = out / "model_dt.json"
        raw = model.read_bytes()
        model.write_bytes(edit(raw))
        assert model.read_bytes() != raw
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{model}: not a usable model file" in err
        assert message in err and "re-run 'train'" in err
        assert not (out / "final_beliefs.csv").exists()

    @pytest.mark.parametrize("name,edit,message", [
        ("model_dt.json", lambda raw: FIRST_LEAF_LABEL.sub(rb"\g<1>2", raw, count=1),
         "a tree leaf has class label 2, not 0 or 1"),
        ("model_rf.json", lambda raw: FIRST_LEAF_LABEL.sub(rb"\g<1>2", raw, count=1),
         "a tree leaf has class label 2, not 0 or 1"),
    ], ids=["dt-leaf", "rf-leaf"])
    def test_class_label_other_than_0_or_1_is_usage_error(self, pipeline_run, tmp_path, capsys,
                                                          name, edit, message):
        out = _copy_run(pipeline_run, tmp_path / "out")
        model = out / name
        raw = model.read_bytes()
        model.write_bytes(edit(raw))
        assert model.read_bytes() != raw
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{model}: not a usable model file ({message})" in err
        assert err.rstrip().endswith("re-run 'train'")
        assert not (out / "facts.lp").exists()

    def test_deleted_or_duplicated_tree_entry_is_usage_error(self, pipeline_run, tmp_path, capsys):
        # deleting or duplicating one entry of a tree's sequence changes the
        # count of its nodes, splits or leaves, so no such edit reads as a tree
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        saved = {name: (pipeline_run / name).read_text() for name in ("model_dt.json", "model_rf.json")}

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            name = data.draw(st.sampled_from(sorted(saved)))
            payload = json.loads(saved[name])
            trees = payload["state"]["trees"] if name == "model_rf.json" else [payload["state"]]
            tree = trees[data.draw(st.integers(0, len(trees) - 1))]
            entries = tree[data.draw(st.sampled_from([k for k in sorted(tree) if tree[k]]))]
            at = data.draw(st.integers(0, len(entries) - 1))
            if data.draw(st.booleans()):
                del entries[at]
            else:
                entries.insert(at, entries[at])
            out = _copy_run(pipeline_run, tmp_path / "out")
            model = out / name
            model.write_text(json.dumps(payload))
            try:
                assert main(["revise", *DATASET_ARGS, "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert f"{model}: not a usable model file" in err, err
                assert err.rstrip().endswith("re-run 'train'")
                assert not (out / "facts.lp").exists()
            finally:
                shutil.rmtree(out)

        check()

    @pytest.mark.parametrize("name,edit,message", [
        ("model_svm.json", lambda p: p["state"]["dual_coef"].__setitem__(0, float("nan")),
         "dual_coef must be a list of finite numbers"),
        ("model_dt.json", lambda p: p["state"]["threshold"].__setitem__(0, float("nan")),
         "threshold must be a list of finite numbers"),
        ("model_knn.json", lambda p: p["params"].__setitem__("k", 0),
         "k must be an integer of at least 1, got 0"),
        ("model_svm.json", lambda p: p["state"].__setitem__("gamma_value", "x"),
         "gamma_value must be a finite number, got 'x'"),
        ("model_knn.json", lambda p: p.__setitem__("params", {"k": "nine"}),
         "k must be an integer of at least 1, got 'nine'"),
        ("model_rf.json", lambda p: p["state"].__setitem__("trees", []),
         "trees must be a non-empty list"),
        ("model_dt.json", lambda p: p.__setitem__("format", "metaphish.model/1"),
         "not a model file: format 'metaphish.model/1', but this version reads"),
        ("model_rf.json", lambda p: p.__setitem__("format", "metaphish.model/2"),
         "not a model file: format 'metaphish.model/2', but this version reads "
         "'metaphish.model/3'"),
        ("model_rf.json", lambda p: p.__setitem__("seed", -1),
         "seed must be an integer of at least 0, got -1"),
        ("model_rf.json", lambda p: p["params"].__setitem__("n_estimators", 0),
         "n_estimators must be an integer of at least 1, got 0"),
        ("model_dt.json", lambda p: p["params"].__setitem__("max_depth", -1),
         "max_depth must be an integer of at least 0 or None, got -1"),
        ("model_svm.json", lambda p: p["params"].__setitem__("gamma", "bogus"),
         "gamma must be 'scale', 'auto' or a positive number, got 'bogus'"),
    ], ids=["svm-dual-coef-nan", "dt-threshold-nan", "knn-k-0", "svm-gamma-value-str",
            "knn-k-str", "rf-no-trees", "format-1", "format-2", "rf-seed-negative",
            "rf-n-estimators-0", "dt-max-depth-negative", "svm-gamma-str"])
    def test_model_schema_violation_is_usage_error(self, pipeline_run, tmp_path, capsys,
                                                   name, edit, message):
        # each of these ended with exit 0 and a wrong answer, or exit 1, before
        # load_model checked the whole schema
        out = _copy_run(pipeline_run, tmp_path / "out")
        model = out / name
        payload = json.loads(model.read_text())
        edit(payload)
        model.write_text(json.dumps(payload))
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{model}: not a usable model file ({message}" in err
        assert err.rstrip().endswith("re-run 'train'")
        assert not (out / "facts.lp").exists()

    def test_snapshot_dir_without_any_test_page_is_usage_error(self, pipeline_run, tmp_path,
                                                              capsys):
        pages = tmp_path / "pages"
        pages.mkdir()
        (pages / "999.html").write_text('<meta name="description" content="x">')  # no test id
        out = _copy_run(pipeline_run, tmp_path / "out")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out), "--snapshot-dir", str(pages)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"snapshot directory {pages} has no <id>.html page" in err
        assert "fix --snapshot-dir" in err
        assert not (out / "facts.lp").exists()

    def test_snapshot_dir_with_some_test_pages_is_allowed(self, pipeline_run, tmp_path):
        with open(pipeline_run / "split_manifest.csv", newline="") as fh:
            first = next(int(r["id"]) for r in csv.DictReader(fh) if r["role"] == "test")
        pages = tmp_path / "pages"
        pages.mkdir()
        (pages / f"{first}.html").write_text("<html></html>")
        out = _copy_run(pipeline_run, tmp_path / "out")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out), "--snapshot-dir", str(pages)])
        assert rc == 0

    def test_manifest_with_other_train_rows_is_usage_error(self, pipeline_run, tmp_path, capsys):
        # KNN and SVM rows are rebuilt from the manifest's train rows, so one
        # train row relabelled as test must not silently give another model
        out = _copy_run(pipeline_run, tmp_path / "out")
        manifest = out / "split_manifest.csv"
        lines = manifest.read_text().splitlines()
        moved = next(i for i, line in enumerate(lines) if ",train," in line)
        lines[moved] = lines[moved].split(",")[0] + ",test,"
        manifest.write_text("\n".join(lines) + "\n")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{out / 'model_svm.json'}: not a usable model file (the scaler is not the one " \
               f"the manifest's training rows give); re-run 'train'" in err

    def test_manifest_without_train_rows_is_usage_error(self, pipeline_run, tmp_path, capsys):
        out = _copy_run(pipeline_run, tmp_path / "out")
        manifest = out / "split_manifest.csv"
        manifest.write_text("".join(line + "\n" for line in manifest.read_text().splitlines()
                                    if ",train," not in line))
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "no train rows" in err and "re-run 'train'" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: [l.replace(",train,", ",trian,") for l in lines], "unknown role 'trian'"),
        (lambda lines: [*lines, next(l for l in lines if ",test," in l)], "duplicate id"),
        (lambda lines: [*lines, "5000,test,"], "id 5000 is outside"),
        (lambda lines: [*lines, "-1,test,"], "id -1 is outside"),
        (lambda lines: [*lines, "seven,test,"], "'seven' is not an integer"),
    ], ids=["unknown-role", "duplicate-id", "id-above-range", "negative-id", "non-integer-id"])
    def test_bad_manifest_row_is_usage_error(self, pipeline_run, tmp_path, capsys, edit, message):
        out = _copy_run(pipeline_run, tmp_path / "out")
        manifest = out / "split_manifest.csv"
        lines = edit(manifest.read_text().splitlines())
        manifest.write_text("\n".join(lines) + "\n")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "line " in err and "re-run 'train'" in err
        assert not (out / "final_beliefs.csv").exists()

    @pytest.mark.parametrize("role,fold,message", [
        ("train", "NaN", "train row {id} has fold 'NaN', not a non-negative integer"),
        ("train", "-1", "train row {id} has fold '-1', not a non-negative integer"),
        ("train", "1.0", "train row {id} has fold '1.0', not a non-negative integer"),
        ("train", "", "train row {id} has fold '', not a non-negative integer"),
        ("test", "0", "test row {id} has fold '0'; a test row has none"),
    ], ids=["nan-train-fold", "negative-train-fold", "float-train-fold", "empty-train-fold",
            "test-row-fold"])
    def test_bad_manifest_fold_is_usage_error(self, pipeline_run, tmp_path, capsys, role, fold,
                                              message):
        # train writes a train row's fold as a non-negative integer and leaves
        # a test row's empty; any other value marks a damaged manifest
        out = _copy_run(pipeline_run, tmp_path / "out")
        manifest = out / "split_manifest.csv"
        lines = manifest.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if f",{role}," in line)
        rid = lines[at].split(",")[0]
        lines[at] = f"{rid},{role},{fold}"
        manifest.write_text("\n".join(lines) + "\n")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {manifest}, line {at + 1}: {message.format(id=rid)}" in err, err
        assert not (out / "final_beliefs.csv").exists()

    def test_shorter_dataset_than_trained_on_is_usage_error(self, pipeline_run, tmp_path, capsys):
        # revise with the first 100 rows of the dataset the models were trained on
        short = tmp_path / "short.csv"
        short.write_text("\n".join(FIXTURE_CSV.read_text().splitlines()[:101]) + "\n")
        out = _copy_run(pipeline_run, tmp_path / "out")
        rc = main(["revise", "--dataset", str(short), "--out", str(out)])
        assert rc == 2
        assert "outside the dataset's rows [0, 100)" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["flipped-label", "missing-file"])
    def test_dataset_other_than_trained_on_is_usage_error(self, pipeline_run, tmp_path, capsys,
                                                         monkeypatch, case):
        loads = []
        monkeypatch.setattr(cli, "load_model", lambda path, *_: loads.append(path))
        out = _copy_run(pipeline_run, tmp_path / "out")
        dataset = FIXTURE_CSV
        if case == "flipped-label":  # same rows and features, one label flipped
            lines = FIXTURE_CSV.read_text().splitlines()
            cells = lines[1].split(",")
            cells[-2] = {"phishing": "legitimate", "legitimate": "phishing"}[cells[-2]]
            lines[1] = ",".join(cells)
            dataset = tmp_path / "flipped.csv"
            dataset.write_text("\n".join(lines) + "\n")
        else:
            (out / "run_inputs.kv").unlink()
        rc = main(["revise", "--dataset", str(dataset), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(out / "run_inputs.kv") in err
        assert "pass the dataset 'train' used or re-run 'train'" in err
        if case == "flipped-label":
            assert "(mismatch: y_sha256)" in err
        assert loads == []
        assert not (out / "facts.lp").exists()

    @pytest.mark.parametrize("name", MODEL_FILES)
    def test_scaler_narrower_than_dataset_is_usage_error(self, pipeline_run, tmp_path, capsys,
                                                         name):
        out = _copy_run(pipeline_run, tmp_path / "out", "facts.lp", "final_beliefs.csv")
        model = out / name
        payload = json.loads(model.read_text())
        for key in ("means", "std_devs"):
            payload["scaler"][key].pop()
        model.write_text(json.dumps(payload))
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{model}: not a usable model file (the scaler is 86 features wide" in err
        assert "re-run 'train'" in err
        for artifact in ("facts.lp", "final_beliefs.csv"):
            assert (out / artifact).read_bytes() == (pipeline_run / artifact).read_bytes()

    def test_model_kind_must_match_file_name(self, pipeline_run, tmp_path, capsys):
        out = _copy_run(pipeline_run, tmp_path / "out")
        (out / "model_svm.json").write_bytes((out / "model_dt.json").read_bytes())
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        assert rc == 2
        assert "holds a dt model, not svm" in capsys.readouterr().err

    def test_dataset_without_meta_column_is_actionable(self, tmp_path, capsys):
        # strip the meta column from the fixture, retrain, then revise
        lines = FIXTURE_CSV.read_text().splitlines()
        cut = [",".join(line.split(",")[:-1]) for line in lines]
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(cut) + "\n")
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(bare), "--out", str(out)]) == 0
        rc = main(["revise", "--dataset", str(bare), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "meta" in err and "snapshot-dir" in err

    @pytest.mark.parametrize("source,message", [
        ("missing-snapshot-dir", "fix --snapshot-dir"),
        ("no-meta-column", "pass --meta-column or --snapshot-dir"),
    ], ids=["missing-snapshot-dir", "no-meta-column"])
    def test_meta_source_checked_before_models_load(self, pipeline_run, tmp_path, capsys,
                                                     monkeypatch, source, message):
        loads = []
        monkeypatch.setattr(cli, "load_model", lambda path, *_: loads.append(path))
        out = _copy_run(pipeline_run, tmp_path / "out")
        if source == "missing-snapshot-dir":
            args = [*DATASET_ARGS, "--snapshot-dir", str(tmp_path / "missing")]
        else:  # the fixture without its last (meta) column
            bare = tmp_path / "bare.csv"
            bare.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                    for line in FIXTURE_CSV.read_text().splitlines()))
            args = ["--dataset", str(bare)]
        rc = main(["revise", *args, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert loads == []
        assert not (out / "facts.lp").exists()


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _number_after(key, replacement):
    """Replace the first number after ``key`` (the last number of the file
    when ``key`` is None) with ``replacement``."""
    def edit(text):
        start = 0 if key is None else text.index(key)
        matches = list(NUMBER.finditer(text, start))
        m = matches[-1] if key is None else matches[0]
        return text[:m.start()] + replacement + text[m.end():]
    return edit


def _drop_middle_line(text):
    lines = text.splitlines(keepends=True)
    del lines[len(lines) // 2]
    return "".join(lines)


def _empty_last_list(text):
    end = text.rindex("]")
    return text[:text.rindex("[", 0, end)] + "[]" + text[end + 1:]


# a lone surrogate escape, written with errors="surrogateescape": a byte that is not UTF-8
NOT_UTF_8 = "\udcff"

FAULTS = {
    "truncate": lambda text: text[: len(text) // 2],
    "drop-line": _drop_middle_line,
}
# params that an estimator's constructor takes but no grid has; revise must
# refuse a model file whose kind's grid lacks any of them
PARAM_FAULTS = {
    "svm-solver-params": {"tol": "abc", "max_iter": -5},
    "min-samples-split-param": {"min_samples_split": 5},
    "tree-sampling-params": {"max_features": 3, "rng": 7},
}


def _shift_scaler_means(text):
    """Add 100.0 to every scaler mean, in the file's compact JSON form."""
    payload = json.loads(text)
    payload["scaler"]["means"] = [mean + 100.0 for mean in payload["scaler"]["means"]]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _with_params(extra):
    """Put the entries of ``extra`` first in the model file's params."""
    entries = json.dumps(extra, separators=(",", ":"))[1:-1]
    return lambda text: text.replace('"params":{', '"params":{' + entries + ",", 1)


MODEL_FAULTS = {
    **FAULTS,
    **{fault: _with_params(extra) for fault, extra in PARAM_FAULTS.items()},
    "nan-param": _number_after('"params"', "NaN"),
    "nan-last-number": _number_after(None, "NaN"),
    "string-param": _number_after('"params"', '"x"'),
    "string-last-number": _number_after(None, '"x"'),
    "empty-last-list": _empty_last_list,
    "not-utf-8": lambda text: text.replace('"', '"' + NOT_UTF_8, 1),
    "shifted-scaler-means": _shift_scaler_means,
}
MANIFEST_FAULTS = {
    **FAULTS,
    "nan-id": lambda text: text.replace("\n5,", "\nNaN,", 1),
    "nan-fold": lambda text: re.sub(r"\n(\d+),train,\d+\n", r"\n\1,train,NaN\n", text, count=1),
    "string-id": lambda text: text.replace("\n5,", "\nx,", 1),
    "empty-list": lambda text: text.splitlines(keepends=True)[0],
    "not-utf-8": lambda text: text.replace("\n5,", "\n5" + NOT_UTF_8 + ",", 1),
}
INPUTS_FAULTS = {
    **FAULTS,
    "flip-digit": lambda text: re.sub(r"\d\n", lambda m: f"{(int(m[0][0]) + 1) % 10}\n", text,
                                      count=1),
    "not-utf-8": lambda text: text.replace("=", "=" + NOT_UTF_8, 1),
}
RULES = "rules.lp"  # a copy of the bundled rules, passed with --rules
RULES_FAULTS = {
    **FAULTS,
    "not-utf-8": lambda text: text.replace("%", "% " + NOT_UTF_8, 1),
    "final-of-unknown-classifier": lambda text: text + "final(x,1,benign).\n",
    "final-outside-test-ids": lambda text: text + "final(svm,1000,benign).\n",
    "empty": lambda text: "",
    "arity-clash": lambda text: text + "pred(svm,1).\n",
}
# what revise says of each damaged run_inputs.kv: a damaged file, or another dataset
INPUTS_MESSAGES = {
    **dict.fromkeys(("truncate", "drop-line", "not-utf-8"),
                    "damaged, it must hold the rows, x_sha256, y_sha256 lines that 'train' "
                    "writes; re-run 'train'"),
    "flip-digit": "is not the dataset 'train' used (mismatch: rows); pass the dataset",
}
FILE_FAULTS = {**dict.fromkeys(MODEL_FILES, MODEL_FAULTS), "split_manifest.csv": MANIFEST_FAULTS,
               "run_inputs.kv": INPUTS_FAULTS, RULES: RULES_FAULTS}
SWAPS = {name: MODEL_FILES[(i + 1) % len(MODEL_FILES)] for i, name in enumerate(MODEL_FILES)}
SWAPS["split_manifest.csv"] = "model_svm.json"
FAULT_CASES = [(name, fault) for name, faults in FILE_FAULTS.items()
               for fault in [*faults, *(["swap"] if name in SWAPS else [])]]


SCALER_MESSAGE = "the scaler is not the one the manifest's training rows give"


def _line_span(data, at):
    """The start and end (past its line end) of the line holding byte ``at``."""
    start = data.rfind(b"\n", 0, at) + 1
    end = data.find(b"\n", at)
    return start, len(data) if end < 0 else end + 1


INSERTS = {"insert-comma": b",", "insert-cr": b"\r", "insert-bom": b"\xef\xbb\xbf",
           "insert-test": b"test"}
BYTE_EDITS = ("cut", "replace", "duplicate-line", "swap-lines", *INSERTS)


def _byte_edit(data, edit, at, to, byte):
    """``data`` after one of :data:`BYTE_EDITS` at the positions ``at`` and
    ``to`` (taken modulo the length), with ``byte`` for "replace"."""
    if not data:
        return INSERTS.get(edit, data)
    at, to = at % len(data), to % len(data)
    if edit == "cut":
        return data[:at]
    if edit == "replace":
        return data[:at] + bytes([byte]) + data[at + 1:]
    if edit in INSERTS:
        return data[:at] + INSERTS[edit] + data[at:]
    (a, b), (c, d) = sorted([_line_span(data, at), _line_span(data, to)])
    if edit == "duplicate-line":
        return data[:b] + data[a:b] + data[b:]
    return data if c < b else data[:a] + data[c:d] + data[b:c] + data[a:b] + data[d:]


class TestDamagedRunFiles:
    @pytest.mark.parametrize("name,fault", FAULT_CASES, ids=[f"{n}-{f}" for n, f in FAULT_CASES])
    def test_revise_names_the_file_or_writes_the_same_outputs(self, pipeline_run, tmp_path,
                                                               capsys, name, fault):
        # a damaged file that revise reads ends in exit 2 naming it, or is
        # harmless (exit 0, every output byte-identical); exit 1 and exit 0
        # with other outputs are both failures
        out = _copy_run(pipeline_run, tmp_path / "out")
        rules = []
        if name == RULES:
            (out / RULES).write_text(revision.default_rules_text())
            rules = ["--rules", str(out / RULES)]
        damaged = [name]
        if fault == "swap":
            other = SWAPS[name]
            damaged.append(other)
            first, second = (out / name).read_bytes(), (out / other).read_bytes()
            (out / name).write_bytes(second)
            (out / other).write_bytes(first)
        else:
            edit = FILE_FAULTS[name][fault]
            text = (out / name).read_text()
            assert edit(text) != text
            (out / name).write_text(edit(text), encoding="utf-8", errors="surrogateescape")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out), *rules])
        err = capsys.readouterr().err
        if rc == 0:
            for output in ("facts.lp", "final_beliefs.csv", "report.kv", "report.txt"):
                assert (out / output).read_bytes() == (pipeline_run / output).read_bytes(), output
        else:
            assert rc == 2, err
            assert any(f"error: {out / n}" in err for n in damaged), err
        if name == "run_inputs.kv":
            assert INPUTS_MESSAGES[fault] in err, err
        if fault in PARAM_FAULTS and not set(PARAM_FAULTS[fault]) <= set(
                DEFAULT_GRIDS[ClassifierKind(name[len("model_"):-len(".json")])]):
            assert rc == 2 and "not a usable model file (params not in the " in err, err
        if fault == "shifted-scaler-means":
            assert rc == 2 and SCALER_MESSAGE in err, err

    @pytest.mark.parametrize("stale", MODEL_FILES)
    def test_model_file_of_another_split_is_named(self, pipeline_run, seed_7_run, tmp_path,
                                                  capsys, stale):
        # as if 'train --classifier' with another --seed rewrote every other
        # file: the stale model's scaler is not the new training rows'
        out = _copy_run(pipeline_run, tmp_path / "out")
        for name in {*MODEL_FILES, "split_manifest.csv", "run_inputs.kv"} - {stale}:
            (out / name).write_bytes((seed_7_run / name).read_bytes())
        rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"error: {out / stale}: not a usable model file ({SCALER_MESSAGE})" in err, err
        assert not (out / "facts.lp").exists()

    def test_random_edits_name_the_file_or_change_nothing_hypothesis(self, pipeline_run,
                                                                      tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        out = tmp_path / "out"

        def revise(name, data):
            shutil.rmtree(out, ignore_errors=True)
            _copy_run(pipeline_run, out)
            (out / name).write_bytes(data)
            rc = main(["revise", *DATASET_ARGS, "--out", str(out)])
            return rc, capsys.readouterr().err

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.sampled_from(["split_manifest.csv", "run_inputs.kv"]),
                          st.lists(st.tuples(st.sampled_from(BYTE_EDITS), st.integers(0, 10**6),
                                             st.integers(0, 10**6), st.integers(0, 255)),
                                   min_size=1, max_size=3))
        def edited_run_file(name, edits):
            data = (pipeline_run / name).read_bytes()
            for edit in edits:
                data = _byte_edit(data, *edit)
            rc, err = revise(name, data)
            if rc == 0:
                for output in REVISE_OUTPUTS:
                    assert (out / output).read_bytes() == (pipeline_run / output).read_bytes()
            else:
                assert rc == 2 and f"error: {out / name}" in err, err

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.sampled_from(MODEL_FILES), st.sampled_from(["means", "std_devs"]),
                          st.integers(0, 86), st.floats(allow_nan=False, allow_infinity=False))
        def edited_scaler(name, key, index, value):
            payload = json.loads((pipeline_run / name).read_text())
            hypothesis.assume(payload["scaler"][key][index] != value)
            payload["scaler"][key][index] = value
            rc, err = revise(name, json.dumps(payload).encode())
            assert rc == 2 and f"error: {out / name}: not a usable model file" in err, err

        edited_run_file()
        edited_scaler()


META_PAGE = ('<html><head><meta name="description" content="a shop"></head>'
             "<body><p>hi</p></body></html>")
BARE_PAGE = "<html><body><p>hi</p></body></html>"


def _page(data: bytes):
    return lambda path: path.write_bytes(data)


# a damaged <id>.html -> (what is made at its path, the meta flag it reads as)
PAGE_FAULTS = {
    "cut-mid-tag": (_page(META_PAGE[:META_PAGE.index("content") + 4].encode()), False),
    "not-utf-8": (_page(META_PAGE.encode().replace(b"a shop", b"a \xff\xfe shop")), True),
    "unclosed-meta-at-end": (_page(BARE_PAGE.encode() + b'<meta name="description" content="x"'),
                             False),
    "markup-parser-gives-up-on": (_page(b"<![foo]]>" + META_PAGE.encode()), False),
    "directory": (Path.mkdir, False),
    "dangling-symlink": (lambda path: path.symlink_to(path.with_name("gone.html")), False),
}


class TestDamagedSnapshotPages:
    @pytest.mark.parametrize("fault", PAGE_FAULTS)
    def test_revise_reads_the_flag_the_scanner_gives(self, pipeline_run, tmp_path, fault):
        # every other test page is damaged; revise must write what it writes
        # for clean pages whose flags are the scanner's flags of the damaged ones
        make, flag = PAGE_FAULTS[fault]
        with open(pipeline_run / "split_manifest.csv", newline="") as fh:
            test_ids = [int(r["id"]) for r in csv.DictReader(fh) if r["role"] == "test"]
        damaged, clean = tmp_path / "damaged", tmp_path / "clean"
        damaged.mkdir()
        clean.mkdir()
        for k, rid in enumerate(test_ids):
            page = damaged / f"{rid}.html"
            if k % 2:
                page.write_text(META_PAGE)
                (clean / page.name).write_text(META_PAGE)
                continue
            make(page)
            if page.is_file():
                assert extract_meta_presence(page.read_text("utf-8", errors="replace")) is flag
            (clean / page.name).write_text(META_PAGE if flag else BARE_PAGE)
        outputs = []
        for pages in (damaged, clean):
            out = _copy_run(pipeline_run, tmp_path / f"out-{pages.name}")
            assert main(["revise", *DATASET_ARGS, "--out", str(out),
                         "--snapshot-dir", str(pages)]) == 0
            outputs.append({name: (out / name).read_bytes() for name in
                            ("facts.lp", "final_beliefs.csv", "report.kv", "report.txt")})
        assert outputs[0] == outputs[1]


# manifests whose header or rows have another shape than train writes:
# (header, rows), each a list of lines, or a whole text
MANIFEST_SHAPES = {
    "columns-reordered": lambda lines: ["fold,id,role"] + [
        ",".join((c[2], c[0], c[1])) for c in (line.split(",") for line in lines[1:])],
    "id-twice": lambda lines: ["id,role,fold,id"] + [line + ",x" for line in lines[1:]],
    "id-twice-last-empty": lambda lines: ["id,role,fold,id"] + [line + "," for line in lines[1:]],
    "no-fold-column": lambda lines: ["id,role"] + [line.rsplit(",", 1)[0] for line in lines[1:]],
    "no-role-column": lambda lines: ["id,fold"] + [line.split(",")[0] for line in lines[1:]],
    "no-id-column": lambda lines: ["role,fold"] + lines[1:],
    "short-row": lambda lines: lines[:7] + [lines[7].rsplit(",", 1)[0]] + lines[8:],
    "long-rows": lambda lines: [line + ",extra,more" for line in lines],
    "blank-lines": lambda lines: [lines[0], "", *lines[1:5], "", "", *lines[5:], ""],
    "blank-header": lambda lines: ["", *lines],
    "header-only": lambda lines: lines[:1],
    "empty": lambda lines: [],
    "quoted-cells": lambda lines: [lines[0]] + [f'"{line.split(",")[0]}",{line.split(",", 1)[1]}'
                                                for line in lines[1:]],
    "quoted-newline": lambda lines: lines[:3] + ['"5\n",test,'] + lines[3:],
    "header-spaces": lambda lines: ["id, role, fold"] + lines[1:],
    "bom": lambda lines: ["\ufeff" + lines[0]] + lines[1:],
    "crlf": lambda lines: [line + "\r" for line in lines],
}


class TestManifestReader:
    """``cli._read_manifest`` against the ``csv.DictReader`` reader it replaced."""

    @staticmethod
    def outcome(read, out, n_rows):
        try:
            return read(out, n_rows)
        except cli.ConfigError as exc:
            return str(exc)

    def check(self, out, text, n_rows=200):
        (out / cli.MANIFEST_FILE).write_bytes(text.encode("utf-8", "surrogateescape"))
        want = self.outcome(dict_reader_manifest, out, n_rows)
        assert self.outcome(cli._read_manifest, out, n_rows) == want
        return want

    @pytest.mark.parametrize("shape", MANIFEST_SHAPES)
    def test_same_result_for_another_shape(self, pipeline_run, tmp_path, shape):
        lines = (pipeline_run / cli.MANIFEST_FILE).read_text().splitlines()
        self.check(tmp_path, "".join(line + "\n" for line in MANIFEST_SHAPES[shape](lines)))

    def test_same_result_for_random_edits(self, pipeline_run, tmp_path):
        lines = (pipeline_run / cli.MANIFEST_FILE).read_text().splitlines()
        rng = random.Random(29)
        cells = ["", "0", "7", "199", "200", "-1", "x", "train", "test", "id", "role", "fold",
                 '"', "1.0", " 3"]
        outcomes = set()
        for _ in range(300):
            edited = list(lines)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(edited) + 1)
                row = edited[at].split(",") if at < len(edited) else []
                action = rng.randrange(4)
                if action == 0 and row:  # replace a cell
                    row[rng.randrange(len(row))] = rng.choice(cells)
                elif action == 1 and row:  # drop a cell
                    del row[rng.randrange(len(row))]
                elif action == 2:  # add a cell
                    row.insert(rng.randint(0, len(row)), rng.choice(cells))
                if action == 3:  # drop the line, or add a blank one
                    edited[at:at + 1] = [] if row else [""]
                else:
                    edited[at:at + 1] = [",".join(row)]
            outcomes.add(type(self.check(tmp_path, "\n".join(edited) + "\n")))
        assert outcomes == {str, tuple}  # both accepted and refused manifests are met


# the fixture's 90 columns: url, 87 features, status, meta_present
DATASET_FAULTS = {
    "drop-cell": edit_row(lambda cells: cells[:10] + cells[11:]),
    "non-numeric": edit_row(set_cell(10, "x")),
    "nan": edit_row(set_cell(10, "nan")),
    "unknown-label": edit_row(set_cell(88, "maybe")),
    "meta-2": edit_row(set_cell(89, "2")),
    "blank-line": edit_row(lambda cells: ["\n" + cells[0], *cells[1:]]),
    "bom": lambda text: "\ufeff" + text,
    "flip-digit": edit_row(set_cell(10, lambda cell: cell[:-1] + str((int(cell[-1]) + 1) % 10))),
    "extra-cell": edit_row(lambda cells: [*cells, "1"]),
    "trailing-blank-line": lambda text: text + "\n",
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "quoted-url": edit_row(set_cell(0, lambda cell: f'"{cell}?a=1,b=2"')),
    "header-only": lambda text: text[:text.index("\n") + 1],
}
TRAIN_OUTPUTS = (*MODEL_FILES, "split_manifest.csv", "run_inputs.kv", "cv_summary.kv")
REVISE_OUTPUTS = ("facts.lp", "final_beliefs.csv", "report.kv", "report.txt")


class TestDamagedDataset:
    @pytest.mark.parametrize("fault", DATASET_FAULTS)
    @pytest.mark.parametrize("command", ["train", "revise"])
    def test_names_the_file_or_writes_the_same_outputs(self, pipeline_run, tmp_path, capsys,
                                                       command, fault):
        # as TestDamagedRunFiles: exit 2 naming the dataset, or exit 0 with
        # every output byte-identical to the undamaged run's
        text = FIXTURE_CSV.read_text(encoding="utf-8")
        damaged = tmp_path / "data.csv"
        assert DATASET_FAULTS[fault](text) != text
        damaged.write_text(DATASET_FAULTS[fault](text), encoding="utf-8")
        if command == "train":
            out, outputs = tmp_path / "out", TRAIN_OUTPUTS
        else:
            out, outputs = _copy_run(pipeline_run, tmp_path / "out"), REVISE_OUTPUTS
        rc = main([command, "--dataset", str(damaged), "--out", str(out)])
        err = capsys.readouterr().err
        if (command, fault) == ("train", "flip-digit"):
            # another valid dataset: train fits it and records its fingerprint,
            # which revise then checks (the revise case of this fault)
            assert rc == 0, err
            assert (out / "run_inputs.kv").read_bytes() != (pipeline_run / "run_inputs.kv").read_bytes()
        elif rc == 0:
            for output in outputs:
                assert (out / output).read_bytes() == (pipeline_run / output).read_bytes(), output
        else:
            assert rc == 2, err
            assert f"{damaged}" in err, err
            assert fault == "flip-digit" or err.endswith("; fix the dataset\n"), err


class TestReport:
    def test_renders_stored_report(self, pipeline_run, capsys):
        rc = main(["report", "--out", str(pipeline_run)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (pipeline_run / "report.txt").read_text()
        assert "False positives" in out
        assert "without nmr" in out

    def test_renders_from_kv_alone(self, pipeline_run, tmp_path, capsys):
        lone = tmp_path / "lone"
        lone.mkdir()
        (lone / "report.kv").write_bytes((pipeline_run / "report.kv").read_bytes())
        rc = main(["report", "--out", str(lone)])
        assert rc == 0
        assert capsys.readouterr().out == (pipeline_run / "report.txt").read_text()

    def test_empty_results_dir(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2

    @staticmethod
    def _set(key, value):
        """An edit that sets ``key``'s value, or changes its last digit (``value``
        None) as a flipped digit would."""
        def edit(text):
            old = re.search(rf"^{re.escape(key)}=(.*)$", text, flags=re.M).group(1)
            new = old[:-1] + str((int(old[-1]) + 1) % 10) if value is None else value
            return text.replace(f"{key}={old}\n", f"{key}={new}\n")
        return edit

    @staticmethod
    def _set_all(*pairs):
        """An edit that sets the value of each ``(key, value)`` of ``pairs``."""
        def edit(text):
            for key, value in pairs:
                text = TestReport._set(key, value)(text)
            return text
        return edit

    @pytest.mark.parametrize("edit,message", [
        (lambda text: text[: text.index("dt.tp_before")], "missing key 'dt.tp_before'"),
        (lambda text: text + "garbage line\n", "expected key=value"),
        (_set("dt.tp_after", "-5"), "dt.tp_after is '-5', not a non-negative integer"),
        (_set("dt.tp_after", "999999"), "decisions before revision, 1000"),
        (_set("dt.revised", "300"), "after and 300 revised"),
        (_set("total.decisions", "0"), "total.decisions is '0', but the classifiers' counts give"),
        (_set("total.decisions", "7"), "total.decisions is '7'"),
        (_set("total.fraction", None), "total.fraction is '0.0"),
        (_set("svm.tn_before", None), "svm counts"),
        # each keeps every sum, but breaks one rule that revision keeps
        (_set_all(("dt.tp_after", "20"), ("dt.tn_after", "17")),
         "dt counts 21 phishing and 19 legitimate instances after revision, "
         "but svm counts 20 and 20 before"),
        (_set_all(("knn.tp_before", "20"), ("knn.tn_before", "17"),
                  ("knn.tp_after", "19"), ("knn.tn_after", "18")),
         "knn counts 21 phishing and 19 legitimate instances before revision, "
         "but svm counts 20 and 20 before"),
        (_set_all(("dt.revised", "4"), ("total.revised", "8"), ("total.fraction", "0.050000")),
         "dt.revised is 4, but its counts before and after revision differ by 3 verdicts"),
        (_set_all(("dt.revised", "1"), ("total.revised", "5"), ("total.fraction", "0.031250")),
         "dt.revised is 1, but its counts before and after revision differ by 3 verdicts"),
    ], ids=["truncated", "garbage-line", "negative", "too-many-after", "revised-too-many",
            "no-decisions", "decisions-mismatch", "fraction-digit", "count-digit",
            "labels-change-in-revision", "labels-differ-across-classifiers", "revised-odd",
            "revised-too-few"])
    def test_bad_report_kv_is_usage_error(self, pipeline_run, tmp_path, capsys, edit, message):
        path = tmp_path / "report.kv"
        path.write_text(edit((pipeline_run / "report.kv").read_text()))
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not a usable report" in err
        assert message in err and "re-run 'revise'" in err

    def test_renders_published_comparison_numbers(self, tmp_path, capsys):
        from metaphish.revision import format_kv
        from test_revision import REFERENCE_REPORT_KV

        (tmp_path / "report.kv").write_text(format_kv(REFERENCE_REPORT_KV))
        assert main(["report", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        without = next(l for l in lines if "without nmr" in l)
        with_ = next(l for l in lines if "with nmr" in l)
        assert without.split()[-4:] == ["41", "47", "69", "49"]
        assert with_.split()[-4:] == ["30", "34", "48", "35"]


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.kv"
        cfg.write_text(f"dataset={FIXTURE_CSV}\nseed=7\nclassifier=dt\n")
        out = tmp_path / "out"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "9"])
        assert rc == 0
        echo = parse_kv((out / "run_config.kv").read_text())
        assert echo["seed"] == "9"  # flag wins
        assert echo["classifier"] == "dt"
        assert echo["dataset"] == str(FIXTURE_CSV)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.kv"
        cfg.write_text("wibble=1\n")
        assert main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key,value,message", [
        ("seed", "-1", "--seed must be a non-negative integer, got -1"),
        ("test_fraction", "0", "--test-fraction must be strictly between 0 and 1, got 0.0"),
        ("test_fraction", "1", "--test-fraction must be strictly between 0 and 1, got 1.0"),
        ("test_fraction", "nan", "--test-fraction must be strictly between 0 and 1, got nan"),
        ("folds", "1", "--folds must be at least 2, got 1"),
    ], ids=["seed-negative", "test-fraction-0", "test-fraction-1", "test-fraction-nan", "folds-1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_number_is_usage_error_before_any_write(self, tmp_path, capsys, key, value,
                                                        message, source):
        # each ended in exit 1 from deep inside the run; a negative seed did
        # so after the manifest, the run inputs and three models were written
        out = tmp_path / "out"
        if source == "flag":
            args = [*DATASET_ARGS, f"--{key.replace('_', '-')}", value]
        else:
            config = tmp_path / "run.kv"
            config.write_text(f"dataset={FIXTURE_CSV}\n{key}={value}\n")
            args = ["--config", str(config)]
        rc = main(["train", *args, "--out", str(out)])
        assert rc == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_config_echo_covers_all_fields(self, pipeline_run):
        # each command echoes the settings it reads, so revise leaves train's echo alone
        echoes = {name: set(parse_kv((pipeline_run / name).read_text()))
                  for name in ("run_config.kv", "revise_config.kv")}
        assert echoes == {
            "run_config.kv": {"dataset", "meta_column", "seed", "test_fraction", "folds",
                              "params", "out", "classifier"},
            "revise_config.kv": {"dataset", "meta_column", "snapshot_dir", "rules", "out"},
        }

    @pytest.mark.parametrize("command,flags", [
        ("revise", ["--seed", "9"]),
        ("revise", ["--classifier", "dt"]),
        ("revise", ["--grid-search"]),
        ("revise", ["--folds", "3"]),
        ("report", ["--dataset", "x.csv"]),
        ("report", ["--rules", "r.lp"]),
        ("train", ["--rules", "r.lp"]),
        ("train", ["--snapshot-dir", "d"]),
    ], ids=["revise-seed", "revise-classifier", "revise-grid-search", "revise-folds",
            "report-dataset", "report-rules", "train-rules", "train-snapshot-dir"])
    def test_flag_of_another_command_is_usage_error(self, pipeline_run, tmp_path, capsys,
                                                    command, flags):
        # each was accepted and ignored, and revise echoed it as if it had applied
        out = _copy_run(pipeline_run, tmp_path / "out", "report.kv")
        before = _files(out)
        dataset = [] if command == "report" else DATASET_ARGS
        assert main([command, *dataset, *flags, "--out", str(out)]) == 2
        assert f"unrecognized arguments: {' '.join(flags)}\n" in capsys.readouterr().err
        assert _files(out) == before

    @pytest.mark.parametrize("command,key", [
        ("revise", "seed"), ("train", "rules"), ("report", "dataset"),
    ], ids=["revise-seed", "train-rules", "report-dataset"])
    def test_config_key_of_another_command_is_usage_error(self, pipeline_run, tmp_path, capsys,
                                                          command, key):
        # skipping the key would ignore it as silently as the flag once was
        out = _copy_run(pipeline_run, tmp_path / "out", "report.kv")
        before = _files(out)
        config = tmp_path / "run.kv"
        config.write_text(f"{key}=7\n")
        dataset = [] if command == "report" else DATASET_ARGS
        assert main([command, "--config", str(config), *dataset, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: config key {key!r} is not a setting of '{command}'\n" in err
        assert _files(out) == before

    def test_revise_keeps_the_echo_that_reproduces_train(self, tmp_path):
        # revise once rewrote run_config.kv with train's defaults (seed=42 here)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["train", *DATASET_ARGS, "--seed", "7", "--out", str(first)]) == 0
        assert main(["revise", *DATASET_ARGS, "--out", str(first)]) == 0
        assert main(["train", "--config", str(first / "run_config.kv"), "--out", str(again)]) == 0
        for name in (*MODEL_FILES, "split_manifest.csv", "cv_summary.kv"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["train", "revise"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_meta_column_not_in_header_is_usage_error(self, pipeline_run, tmp_path, capsys,
                                                      command, source):
        out = _copy_run(pipeline_run, tmp_path / "out")
        if source == "flag":
            args = [*DATASET_ARGS, "--meta-column", "no_such_column"]
        else:
            config = tmp_path / "run.kv"
            config.write_text(f"dataset={FIXTURE_CSV}\nmeta_column=no_such_column\n")
            args = ["--config", str(config)]
        rc = main([command, *args, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{FIXTURE_CSV}: meta column 'no_such_column' is not in the header" in err
        assert "fix --meta-column" in err
        assert not (out / "facts.lp").exists()

    @pytest.mark.parametrize("command,key,value,flags", [
        ("train", "dataset", str(FIXTURE_CSV), ["--dataset", str(FIXTURE_CSV)]),
        ("train", "meta_column", "meta_present", ["--meta-column", "meta_present"]),
        ("revise", "snapshot_dir", "pages", ["--snapshot-dir", "pages"]),
        ("train", "seed", "7", ["--seed", "7"]),
        ("train", "test_fraction", "0.25", ["--test-fraction", "0.25"]),
        ("train", "folds", "3", ["--folds", "3"]),
        ("train", "params", "grid", ["--grid-search"]),
        ("revise", "rules", "rules.lp", ["--rules", "rules.lp"]),
        ("train", "out", "out", ["--out", "out"]),
        ("train", "classifier", "knn", ["--classifier", "knn"]),
    ], ids=["dataset", "meta_column", "snapshot_dir", "seed", "test_fraction", "folds",
            "params", "rules", "out", "classifier"])
    def test_config_key_echoes_like_its_flag(self, pipeline_run, tmp_path, monkeypatch, command,
                                             key, value, flags):
        monkeypatch.chdir(tmp_path)
        base = [] if key == "out" else ["--out", "out"]
        base += [] if key == "dataset" else DATASET_ARGS
        if command == "train":
            base += [] if key == "classifier" else ["--classifier", "dt"]
        else:  # revise reads a trained run, a snapshot page and a rule file
            with open(pipeline_run / "split_manifest.csv", newline="") as fh:
                test_id = next(r["id"] for r in csv.DictReader(fh) if r["role"] == "test")
            (tmp_path / "pages").mkdir()
            (tmp_path / "pages" / f"{test_id}.html").write_text(
                '<meta name="description" content="present">')
            (tmp_path / "rules.lp").write_text(revision.default_rules_text())
        echo = tmp_path / "out" / ("run_config.kv" if command == "train" else "revise_config.kv")
        (tmp_path / "run.kv").write_text(f"{key}={value}\n")
        echoes = []
        for args in (flags, ["--config", "run.kv"]):
            if command == "revise":
                _copy_run(pipeline_run, tmp_path / "out")
            assert main([command, *base, *args]) == 0
            echoes.append(echo.read_text())
            shutil.rmtree(tmp_path / "out")
        assert parse_kv(echoes[0])[key] == value
        assert echoes[1] == echoes[0]

    @pytest.mark.parametrize("key,value,message", [
        ("seed", "x", "argument --seed: invalid int value: 'x'"),
        ("folds", "1.5", "argument --folds: invalid int value: '1.5'"),
        ("test_fraction", "abc", "argument --test-fraction: invalid float value: 'abc'"),
    ], ids=["seed", "folds", "test-fraction"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_value_of_the_wrong_type_is_usage_error_before_any_write(
            self, tmp_path, capsys, key, value, message, source):
        out = tmp_path / "out"
        if source == "flag":
            args = [*DATASET_ARGS, f"--{key.replace('_', '-')}", value]
        else:
            config = tmp_path / "run.kv"
            config.write_text(f"dataset={FIXTURE_CSV}\n{key}={value}\n")
            args = ["--config", str(config)]
        assert main(["train", *args, "--out", str(out)]) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_echoed_config_reproduces_the_run(self, pipeline_run, tmp_path):
        out = tmp_path / "again"
        assert main(["train", "--config", str(pipeline_run / "run_config.kv"),
                     "--out", str(out)]) == 0
        for name in (*MODEL_FILES, "split_manifest.csv", "cv_summary.kv"):
            assert (out / name).read_bytes() == (pipeline_run / name).read_bytes(), name
        echo, first = (parse_kv((d / "run_config.kv").read_text()) for d in (out, pipeline_run))
        assert echo == {**first, "out": str(out)}

    def test_config_values_do_not_outlive_their_call(self, tmp_path):
        config = tmp_path / "run.kv"
        config.write_text(f"dataset={FIXTURE_CSV}\nseed=7\nfolds=3\n")
        common = ["--classifier", "dt", "--out", str(tmp_path / "out")]
        assert main(["train", "--config", str(config), *common]) == 0
        assert main(["train", *DATASET_ARGS, *common]) == 0
        echo = parse_kv((tmp_path / "out" / "run_config.kv").read_text())
        assert (echo["seed"], echo["folds"]) == ("42", "5")
