"""Stage timings of the whole CLI pipeline on a frozen synthetic spec.

``python -m movetrait.bench``, run from the repository root, generates the
dataset of ``docs/example_synth_spec.json`` and runs extract, train,
evaluate, importance and report on it through ``cli.main``, as the command
line would, five times over. It writes each stage's median, fastest and
slowest wall time and median count of minor page faults, with the machine
line, to ``docs/benchmarks.{csv,md}``. The faults are this process's, its
threads included (``getrusage``); synth's pool workers are processes of
their own and are not counted.

Times are medians over at least 3 repetitions to resist scheduler noise;
the min and max next to each median show how far one run can stray, so a
before/after gap inside both ranges shows nothing. Nothing here asserts an
absolute duration beyond a configurable timeout ceiling. Per-layer timings
(parse, kernel, fits, ...) come from ``perfbench/run.py --trace 1``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cli

DEFAULT_SPEC = Path("docs") / "example_synth_spec.json"
DEFAULT_TIMEOUT_S = 120.0
# 3 repetitions read one stage 19 % apart on identical trees
DEFAULT_REPETITIONS = 5
STAGES = ("synth", "extract", "train", "evaluate", "importance", "report")
# The frozen spec's 64-row training folds cannot take the default k of 243 or 137
PCR_COMPONENTS = {"position": 24, "velocity": 16}


@dataclass(frozen=True)
class BenchRecord:
    stage: str
    seconds: float       # median wall time
    min_seconds: float
    max_seconds: float
    minor_faults: int    # median minor page faults
    repetitions: int
    machine: str

    def __post_init__(self):
        if self.repetitions < 3:
            raise ValueError("benchmark records need at least 3 repetitions")


def machine_descriptor() -> str:
    """Platform, CPU count, numpy version and the BLAS threads of the fit
    stages: 1, or ``unpinned`` where ``cli.one_blas_thread`` finds no setter."""
    fit_threads = 1 if cli.blas_thread_calls() else "unpinned"
    return (f"{platform.platform()} cpus={os.cpu_count()} numpy={np.__version__} "
            f"fit_blas_threads={fit_threads}")


def _time_stage(argv: list[str]) -> tuple[float, int]:
    """Wall time and minor page faults of one ``cli.main`` call with its
    output captured.

    A non-zero exit is a RuntimeError naming the stage and its error line.
    """
    out, err = io.StringIO(), io.StringIO()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if code != 0:
        raise RuntimeError(f"stage {argv[0]} exited {code}: {err.getvalue().strip()}")
    return seconds, faults


def bench_pipeline(spec_path: str | Path = DEFAULT_SPEC, repetitions: int = DEFAULT_REPETITIONS,
                   timeout_s: float = DEFAULT_TIMEOUT_S) -> list[BenchRecord]:
    """Median, min and max wall time and median minor faults of each
    pipeline stage over ``repetitions`` full runs.

    The config is the ``PipelineConfig`` defaults (the full 4 x 2 x 7 grid)
    with only the paths and the PCR component counts set. Every repetition
    regenerates the dataset and overwrites the previous run's outputs.
    """
    runs: dict[str, list[tuple[float, int]]] = {stage: [] for stage in STAGES}
    with tempfile.TemporaryDirectory() as tmp:
        takes, config = Path(tmp) / "takes", Path(tmp) / "config.json"
        config.write_text(json.dumps(cli.PipelineConfig(
            takes_dir=str(takes), traits_csv=str(takes / "traits.csv"),
            output_dir=str(Path(tmp) / "out"), pcr_components=PCR_COMPONENTS,
        ).to_dict()))
        for _ in range(repetitions):
            runs["synth"].append(
                _time_stage(["synth", "--spec", str(spec_path), "--out", str(takes)]))
            for stage in STAGES[1:]:
                runs[stage].append(_time_stage([stage, "-c", str(config)]))
    machine = machine_descriptor()
    records = []
    for stage, stage_runs in runs.items():
        times = [t for t, _ in stage_runs]
        records.append(BenchRecord(
            stage, statistics.median(times), min(times), max(times),
            statistics.median_low(f for _, f in stage_runs), repetitions, machine))
    assert_under_timeout(records, timeout_s)
    return records


def assert_under_timeout(records: list[BenchRecord], timeout_s: float) -> None:
    for r in records:
        if r.seconds > timeout_s:
            raise RuntimeError(f"{r.stage} took {r.seconds:.1f}s > {timeout_s}s ceiling")


def records_csv(records: list[BenchRecord]) -> str:
    lines = ["stage,median_seconds,min_seconds,max_seconds,median_minor_faults,"
             "repetitions,machine"]
    for r in records:
        lines.append(f"{r.stage},{r.seconds:.6f},{r.min_seconds:.6f},{r.max_seconds:.6f},"
                     f"{r.minor_faults},{r.repetitions},\"{r.machine}\"")
    return "\n".join(lines) + "\n"


def records_markdown(records: list[BenchRecord]) -> str:
    lines = [
        "# Benchmarks",
        "",
        f"Machine: {records[0].machine if records else 'n/a'}",
        "",
        "| stage | median (s) | min (s) | max (s) | median minor faults | reps |",
        "|---|---|---|---|---|---|",
    ]
    for r in records:
        lines.append(f"| {r.stage} | {r.seconds:.4f} | {r.min_seconds:.4f} | "
                     f"{r.max_seconds:.4f} | {r.minor_faults} | {r.repetitions} |")
    return "\n".join(lines) + "\n"


def main(out_dir: str | Path = "docs") -> int:
    records = bench_pipeline()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "benchmarks.csv").write_text(records_csv(records))
    (out / "benchmarks.md").write_text(records_markdown(records))
    for r in records:
        print(f"event=bench stage={r.stage} median_s={r.seconds:.4f} "
              f"min_s={r.min_seconds:.4f} max_s={r.max_seconds:.4f} "
              f"minor_faults={r.minor_faults}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
