from __future__ import annotations

import pytest

from metaphish.cli import main as cli_main

from _support import FIXTURE_CSV, benchmark_csv


def _run_pipeline(out_dir, dataset, seed=42):
    rc = cli_main(
        ["train", "--dataset", str(dataset), "--out", str(out_dir),
         "--seed", str(seed), "--best-config"]
    )
    assert rc == 0, "train failed"
    rc = cli_main(["revise", "--dataset", str(dataset), "--out", str(out_dir)])
    assert rc == 0, "revise failed"
    return out_dir


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory):
    """One full train+revise run on the synthetic fixture."""
    out = tmp_path_factory.mktemp("pipeline") / "run1"
    return _run_pipeline(out, FIXTURE_CSV)


@pytest.fixture(scope="session")
def pipeline_rerun(tmp_path_factory):
    """A second, identically configured run for byte-stability checks."""
    out = tmp_path_factory.mktemp("pipeline") / "run2"
    return _run_pipeline(out, FIXTURE_CSV)


@pytest.fixture(scope="session")
def seed_7_run(tmp_path_factory):
    """The same run as ``pipeline_run``, but with another split (``--seed 7``)."""
    out = tmp_path_factory.mktemp("pipeline") / "seed7"
    return _run_pipeline(out, FIXTURE_CSV, seed=7)


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    """Trained models on the real benchmark CSV, plus the training wall time.

    Skipped when the CSV is absent; returns (out_dir, seconds).
    """
    import time

    path = benchmark_csv()
    if path is None:
        pytest.skip("benchmark CSV not available (set METAPHISH_DATASET)")
    out = tmp_path_factory.mktemp("benchmark") / "run"
    start = time.perf_counter()
    rc = cli_main(
        ["train", "--dataset", str(path), "--out", str(out), "--seed", "42", "--best-config"]
    )
    elapsed = time.perf_counter() - start
    assert rc == 0, "benchmark train failed"
    return out, elapsed
