import inspect

import numpy as np
import pytest

from movetrait import cli
from movetrait.bench import (
    BenchRecord,
    assert_under_timeout,
    bench_pipeline,
    machine_descriptor,
    records_csv,
    records_markdown,
)
from movetrait.synth import default_strong_spec


def write_spec(tmp_path, participants):
    path = tmp_path / "spec.json"
    default_strong_spec(participants, 1, 60, seed=3).to_json(path)
    return path


def test_record_requires_three_repetitions():
    with pytest.raises(ValueError, match="3 repetitions"):
        BenchRecord("extract", 0.1, 0.1, 0.1, 0, repetitions=2, machine="m")


def test_timeout_ceiling():
    rec = BenchRecord("evaluate", 5.0, 4.0, 6.0, 0, 3, "m")
    assert_under_timeout([rec], timeout_s=10.0)
    with pytest.raises(RuntimeError, match="evaluate took 5.0s > 1.0s ceiling"):
        assert_under_timeout([rec], timeout_s=1.0)


def test_machine_names_numpy_and_fit_threads(monkeypatch):
    assert f" numpy={np.__version__} " in machine_descriptor()
    monkeypatch.setattr(cli, "blas_thread_calls", lambda: [(len, len)])
    assert machine_descriptor().endswith(" fit_blas_threads=1")
    monkeypatch.setattr(cli, "blas_thread_calls", lambda: [])
    assert machine_descriptor().endswith(" fit_blas_threads=unpinned")


def test_five_repetitions_by_default():
    assert inspect.signature(bench_pipeline).parameters["repetitions"].default == 5


def test_min_and_max_next_to_median():
    rec = BenchRecord("train", 0.0652, 0.06104, 0.0901, 1706, 5, "m")
    assert records_csv([rec]).split("\n")[1] == "train,0.065200,0.061040,0.090100,1706,5,\"m\""
    assert "| train | 0.0652 | 0.0610 | 0.0901 | 1706 | 5 |" in records_markdown([rec])


def test_pipeline_smoke(tmp_path):
    # 40 takes in 5 grouped folds: 32-row training folds take k = 24
    records = bench_pipeline(write_spec(tmp_path, 40), repetitions=3, timeout_s=120.0)
    assert [r.stage for r in records] == ["synth", "extract", "train", "evaluate",
                                          "importance", "report"]
    for r in records:
        assert r.repetitions == 3
        assert r.machine == machine_descriptor()
        assert 0 < r.min_seconds <= r.seconds <= r.max_seconds
        assert isinstance(r.minor_faults, int) and r.minor_faults >= 0
    # extract parses 40 takes: its faults are counted, not left at 0
    assert records[1].minor_faults > 0
    csv_lines = records_csv(records).strip().split("\n")
    assert csv_lines[0] == ("stage,median_seconds,min_seconds,max_seconds,"
                            "median_minor_faults,repetitions,machine")
    ex = records[1]
    assert csv_lines[2].startswith(f"extract,{ex.seconds:.6f},{ex.min_seconds:.6f},"
                                   f"{ex.max_seconds:.6f},{ex.minor_faults},3,")
    assert len(csv_lines) == 1 + len(records)
    md = records_markdown(records)
    assert f"Machine: {machine_descriptor()}" in md
    for r in records:
        assert (f"| {r.stage} | {r.seconds:.4f} | {r.min_seconds:.4f} | "
                f"{r.max_seconds:.4f} | {r.minor_faults} | 3 |") in md


def test_failing_stage_is_named(tmp_path):
    # 20 takes leave 16-row training folds, too few for k = 24
    with pytest.raises(RuntimeError, match=r"stage evaluate exited 1: error: .*"
                                           r"PCR component count 24"):
        bench_pipeline(write_spec(tmp_path, 20), repetitions=3, timeout_s=120.0)
