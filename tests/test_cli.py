from __future__ import annotations

import csv

import pytest

from metaphish import kb
from metaphish.cli import main
from metaphish.revision import parse_kv

from _support import FIXTURE_CSV

DATASET_ARGS = ["--dataset", str(FIXTURE_CSV)]
MODEL_FILES = ("model_svm.json", "model_knn.json", "model_dt.json", "model_rf.json")


def _copy_run(run_dir, out):
    """A fresh output directory holding the models and manifest of ``run_dir``."""
    out.mkdir()
    for name in (*MODEL_FILES, "split_manifest.csv"):
        (out / name).write_bytes((run_dir / name).read_bytes())
    return out


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

    def test_repeat_run_is_byte_identical(self, pipeline_run, pipeline_rerun):
        for name in (*MODEL_FILES, "split_manifest.csv"):
            assert (pipeline_run / name).read_bytes() == (pipeline_rerun / name).read_bytes()

    def test_missing_dataset_is_usage_error(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "dataset" in err

    def test_nonexistent_dataset_is_usage_error(self, tmp_path):
        rc = main(["train", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 2

    def test_corrupt_dataset_is_pipeline_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        header, first_row = FIXTURE_CSV.read_text().splitlines()[:2]
        cells = first_row.split(",")
        cells[3] = "oops"
        bad.write_text(header + "\n" + ",".join(cells) + "\n")
        rc = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
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
        meta_yes = {
            f.arguments[0] for f in facts if f.predicate == "meta" and f.arguments[1] == "yes"
        }
        expected = {}
        for fact in facts:
            if fact.predicate == "pred" and fact.arguments[2] == "phishing":
                if fact.arguments[1] in meta_yes:
                    cl = fact.arguments[0]
                    expected[cl] = expected.get(cl, 0) + 1
        kv = parse_kv((pipeline_run / "report.kv").read_text())
        for cl in ("svm", "knn", "dt", "rf"):
            assert int(kv[f"{cl}.revised"]) == expected.get(cl, 0)

    def test_fact_counts(self, pipeline_run):
        facts = kb.load_facts(pipeline_run / "facts.lp")
        preds = [f for f in facts if f.predicate == "pred"]
        metas = [f for f in facts if f.predicate == "meta"]
        assert len(preds) == 4 * 40
        assert len(metas) == 40

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
        # an empty snapshot directory means meta absent for every instance
        empty = tmp_path / "snapshots"
        empty.mkdir()
        out = _copy_run(pipeline_run, tmp_path / "out")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out), "--snapshot-dir", str(empty)])
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

    def test_empty_rules_program_is_pipeline_error(self, pipeline_run, tmp_path, capsys):
        rules = tmp_path / "empty.lp"
        rules.write_text("% no rules\n")
        out = _copy_run(pipeline_run, tmp_path / "out")
        rc = main(["revise", *DATASET_ARGS, "--out", str(out), "--rules", str(rules)])
        assert rc == 1
        assert "final" in capsys.readouterr().err

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

    def test_shorter_dataset_than_trained_on_is_usage_error(self, pipeline_run, tmp_path, capsys):
        # revise with the first 100 rows of the dataset the models were trained on
        short = tmp_path / "short.csv"
        short.write_text("\n".join(FIXTURE_CSV.read_text().splitlines()[:101]) + "\n")
        out = _copy_run(pipeline_run, tmp_path / "out")
        rc = main(["revise", "--dataset", str(short), "--out", str(out)])
        assert rc == 2
        assert "outside the dataset's rows [0, 100)" in capsys.readouterr().err

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

    def test_config_echo_covers_all_fields(self, pipeline_run):
        echo = parse_kv((pipeline_run / "run_config.kv").read_text())
        assert set(echo) == {
            "dataset", "meta_column", "snapshot_dir", "seed", "test_fraction",
            "folds", "params", "rules", "out", "classifier",
        }
