"""Desk-scale timing harness for the expensive pipeline stages.

Times are medians over at least 3 repetitions to resist scheduler noise.
Nothing here asserts absolute durations beyond a configurable timeout
ceiling; the only hard check is that kernel time grows with frame count.
Runs serially to avoid cross-contamination.
"""
from __future__ import annotations

import os
import platform
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import pairwise_correntropy
from .mocap import load_take
from .regression import fit_bayes_ridge, fit_pca
from .synth import default_strong_spec, write_dataset

DEFAULT_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class BenchRecord:
    operation: str
    shape: str
    seconds: float       # median wall time
    repetitions: int
    machine: str

    def __post_init__(self):
        if self.repetitions < 3:
            raise ValueError("benchmark records need at least 3 repetitions")


def machine_descriptor() -> str:
    return f"{platform.platform()} cpus={os.cpu_count()}"


def _median_time(fn, repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def bench_load_take(frames: int = 4200, repetitions: int = 3) -> list[BenchRecord]:
    """Text parse of one synthetic take (frames x 63) written to a temp dir."""
    spec = default_strong_spec(participants=1, stimuli=1, frames=frames, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(spec, tmp)
        path = next(Path(tmp).glob("*.tsv"))
        seconds = _median_time(lambda: load_take(path), repetitions)
    return [BenchRecord("load_take", f"{frames}x63", seconds, repetitions,
                        machine_descriptor())]


def bench_correntropy(frame_counts=(500, 2000, 4200), repetitions: int = 3) -> list[BenchRecord]:
    machine = machine_descriptor()
    rng = np.random.default_rng(0)
    records = []
    for frames in frame_counts:
        data = rng.normal(0.0, 100.0, size=(frames, 60))
        seconds = _median_time(lambda: pairwise_correntropy(data), repetitions)
        records.append(BenchRecord(
            "correntropy_matrix", f"{frames}x60", seconds, repetitions, machine
        ))
    return records


def bench_bayes_ridge(row_counts=(58, 464, 928), dim: int = 1770,
                      repetitions: int = 3) -> list[BenchRecord]:
    machine = machine_descriptor()
    rng = np.random.default_rng(1)
    records = []
    for rows in row_counts:
        X = rng.normal(size=(rows, dim))
        y = X[:, 0] + rng.normal(scale=0.1, size=rows)
        seconds = _median_time(lambda: fit_bayes_ridge(X, y), repetitions)
        records.append(BenchRecord(
            "fit_bayes_ridge", f"{rows}x{dim}", seconds, repetitions, machine
        ))
    return records


def bench_pca(ks=(137, 243), rows: int = 464, dim: int = 1770,
              repetitions: int = 3) -> list[BenchRecord]:
    machine = machine_descriptor()
    rng = np.random.default_rng(2)
    X = rng.normal(size=(rows, dim))
    records = []
    for k in ks:
        seconds = _median_time(lambda: fit_pca(X, k), repetitions)
        records.append(BenchRecord("fit_pca", f"{rows}x{dim} k={k}", seconds,
                                   repetitions, machine))
    return records


def assert_monotone(records: list[BenchRecord]) -> None:
    """Medians must not shrink as the input grows (records given in order)."""
    times = [r.seconds for r in records]
    for a, b in zip(times, times[1:]):
        if b < a:
            raise RuntimeError(
                f"benchmark time not monotone: {times} for {records[0].operation}"
            )


def assert_under_timeout(records: list[BenchRecord], timeout_s: float) -> None:
    for r in records:
        if r.seconds > timeout_s:
            raise RuntimeError(
                f"{r.operation} {r.shape} took {r.seconds:.1f}s > {timeout_s}s ceiling"
            )


def bench_suite(
    frame_counts=(500, 2000, 4200),
    ridge_rows=(58, 464, 928),
    pca_ks=(137, 243),
    repetitions: int = 3,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> list[BenchRecord]:
    parse = bench_load_take(repetitions=repetitions)
    kernel = bench_correntropy(frame_counts, repetitions)
    assert_monotone(kernel)
    ridge = bench_bayes_ridge(ridge_rows, repetitions=repetitions)
    assert_under_timeout(ridge, timeout_s)
    pca = bench_pca(pca_ks, repetitions=repetitions)
    return parse + kernel + ridge + pca


def records_csv(records: list[BenchRecord]) -> str:
    lines = ["operation,shape,median_seconds,repetitions,machine"]
    for r in records:
        lines.append(f"{r.operation},{r.shape},{r.seconds:.6f},{r.repetitions},\"{r.machine}\"")
    return "\n".join(lines) + "\n"


def records_markdown(records: list[BenchRecord]) -> str:
    lines = [
        "# Benchmarks",
        "",
        f"Machine: {records[0].machine if records else 'n/a'}",
        "",
        "| operation | shape | median (s) | reps |",
        "|---|---|---|---|",
    ]
    for r in records:
        lines.append(f"| {r.operation} | {r.shape} | {r.seconds:.4f} | {r.repetitions} |")
    return "\n".join(lines) + "\n"


def main(out_dir: str | Path = "docs") -> int:
    records = bench_suite()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "benchmarks.csv").write_text(records_csv(records))
    (out / "benchmarks.md").write_text(records_markdown(records))
    for r in records:
        print(f"event=bench op={r.operation} shape={r.shape} median_s={r.seconds:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
