"""End-to-end benchmark of the movetrait CLI pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ingest_long --seed 1 --seconds 36 --trace 0

A run writes a synthetic dataset from the seed (set-up, timed three times)
and repeats rounds for about ``--seconds`` seconds. A round is one fresh
interpreter that runs the whole pipeline (extract, train, evaluate,
importance, report) and then the workload's extra stage executions. It
checks the outputs of every round and prints one JSON object as the last
line of standard output. With ``--trace 0`` that object holds the
end-to-end metrics (medians over rounds); with ``--trace 1`` it holds the
per-layer metrics of traced rounds, alternated with untraced rounds so the
tracing overhead can be reported. A failed check exits with code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from pipeline import STAGES, import_program
from tracing import Tracer, summarize

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
SETUP_REPEATS = 3
PASS_TIMEOUT_S = 60.0
RSS_SAMPLE_S = 0.25
PAGE = os.sysconf("SC_PAGE_SIZE")
MB = 1e6


@dataclass(frozen=True)
class Workload:
    participants: int
    stimuli: int
    frames: int
    extra: tuple[str, ...]  # stages run again after the pipeline, see Run.pipeline_round
    config: dict = field(default_factory=dict)

    @property
    def takes(self) -> int:
        return self.participants * self.stimuli

    def full_config(self, data: Path, out: Path) -> dict:
        doc = {
            "takes_dir": str(data), "traits_csv": str(data / "traits.csv"),
            "output_dir": str(out),
            "extract_kinds": ["position", "velocity"],
            "eval_inputs": ["position", "position_n", "velocity", "velocity_n"],
            "model_kinds": ["pcr", "bayes_ridge"],
            "train_input": "position", "train_model": "bayes_ridge",
            "traits": ["O", "C", "E", "A", "N", "EQ", "SQ"],
            "n_folds": 5, "fold_seed": 0, "grouping": "participant",
        }
        doc.update(self.config)
        return doc


# Sizes are chosen so a run (three set-ups plus its rounds) ends in about a
# minute on 2 CPUs, and so the planted-signal R2 clears its floor with
# margin on every seed: 30 single-take participants reach R2 >= 0.93 at
# 4200 frames, 40 single-take participants reach R2 >= 0.96 at 600 frames.
# Each round lasts 8 to 12 s, so a run holds three or four rounds and its
# medians do not hang on one slow stretch of the machine.
WORKLOADS = {
    # long takes, light modelling: text parse, kernel, velocity filter and
    # the extraction worker pool carry the cost. The modelling stages take
    # under a second, so each round runs them three times.
    "ingest_long": Workload(30, 1, 4200, ("train", "evaluate", "importance") * 2, {
        "workers": 2,
        "eval_inputs": ["position", "velocity"],
        "model_kinds": ["bayes_ridge"],
    }),
    # many short takes, the paper's full 4 x 2 x 7 grid: SVD-bearing fits,
    # model files and repeated feature loads carry the cost. PCR k stays
    # below the smallest training fold (32 rows). Each round runs extract
    # and train twice, importance three times and evaluate, at 2 s, once.
    "cv_grid": Workload(40, 1, 600, ("extract", "train", "importance", "importance"), {
        "workers": 1,
        "pcr_components": {"position": 24, "velocity": 16},
    }),
}


def operations(cfg: dict, takes: int) -> dict[str, int]:
    """Operations each stage attempts in one round."""
    traits = len(cfg["traits"])
    return {
        "extract": takes * len(cfg["extract_kinds"]),   # takes extracted, per kind
        "train": traits,                                 # models trained
        "evaluate": len(cfg["eval_inputs"]) * len(cfg["model_kinds"]) * traits,  # score cells
        "importance": traits,                            # importance profiles
        "report": 1,
    }


def tree_rss(root: int) -> int:
    """Resident bytes of a process and all its descendants, now."""
    parent = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat", "rb") as fh:
                    parent[int(name)] = int(fh.read().rsplit(b")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(c for c, p in parent.items() if p == pid)
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * PAGE
        except (OSError, ValueError, IndexError):
            pass
    return total


def run_pass(config: Path, result: Path, trace: bool, stages: tuple[str, ...]) -> dict:
    """One pass over ``stages`` in a child interpreter, with its peak memory.

    The peak is the larger of the child's own maximum RSS (which also
    covers any worker process it waited for) and the sampled sum over its
    process tree, so worker processes alive at the same time add up.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "pipeline.py"), str(config), str(result),
         "1" if trace else "0", *stages],
        cwd=HERE.parent,
    )
    start = time.monotonic()
    sampled = pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            sampled = max(sampled, tree_rss(proc.pid))
            if time.monotonic() - start > PASS_TIMEOUT_S:
                proc.kill()
            time.sleep(RSS_SAMPLE_S)
    finally:
        if not pid:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline pass exited with {proc.returncode}")
    doc = json.loads(result.read_text())
    doc["peak_rss_mb"] = max(usage.ru_maxrss * 1024, sampled) / MB
    return doc


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """State of one benchmark run: counts, digests and per-round figures."""

    def __init__(self, name: str, seed: int, work: Path, trace: bool):
        self.seed, self.work = seed, work
        self.workload = WORKLOADS[name]
        # traced rounds and their untraced pairs run the pipeline alone
        self.plan = STAGES if trace else STAGES + self.workload.extra
        self.data, self.out = work / "data", work / "out"
        self.cfg = self.workload.full_config(self.data, self.out)
        self.config_path = work / "config.json"
        self.attempted = self.failed = 0
        self.digests: set[str] = set()
        self.rounds: list[dict] = []
        self.traced: list[dict] = []

    def spec(self):
        from movetrait.synth import default_strong_spec
        w = self.workload
        return default_strong_spec(w.participants, w.stimuli, w.frames, seed=self.seed)

    def setup(self) -> float:
        from movetrait.synth import write_dataset
        shutil.rmtree(self.data, ignore_errors=True)
        t0 = time.perf_counter()
        write_dataset(self.spec(), self.data)
        seconds = time.perf_counter() - t0
        # flush the dataset now, so its write-back does not land in a round
        for path in self.data.iterdir():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return seconds

    def pipeline_round(self, trace: bool) -> dict:
        """One pass in a fresh interpreter: the pipeline, then the extra stages.

        The extra executions run on the pipeline's own outputs, as a user
        re-running a stage would, and rewrite the same files. Stages shorter
        than a second vary by about 17 % from one execution to the next on
        this kind of machine, so they get more samples per round.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        doc = run_pass(self.config_path, self.work / "pass.json", trace, self.plan)
        doc["stages"] = {s: [e for e in doc["executions"] if e["stage"] == s] for s in STAGES}
        ops = operations(self.cfg, self.workload.takes)
        ok = True
        for execution in doc.pop("executions"):
            stage = execution["stage"]
            self.attempted += ops[stage]
            if execution["exit"] != 0:
                ok = False
                self.failed += ops[stage]
                print(f"stage {stage} failed: {execution['log'].strip()}", file=sys.stderr)
        if ok:
            self.digests.add(checks.output_digest(self.out))
            doc["artifact_mb"] = tree_bytes(self.out) / MB
            doc["cv_r2_min"] = checks.headline_r2(self.out / "evaluate" / "scores.csv")
        (self.traced if trace else self.rounds).append(doc)
        return doc

    def check(self) -> None:
        """Correctness of the last round's outputs and agreement of all rounds."""
        if self.failed:
            return
        cfg, out = self.cfg, self.out
        feats = out / "extract"
        for kind in cfg["extract_kinds"]:
            checks.check_feature_matrix(feats / f"features_{kind}.csv", self.workload.takes)
        n = self.workload.takes
        checks.check_position_features(
            feats / "features_position.csv", self.data, sorted({0, n // 2, n - 1}))
        checks.check_importance(out / "train", out / "importance", cfg["traits"])
        cells = len(cfg["eval_inputs"]) * len(cfg["model_kinds"]) * len(cfg["traits"])
        checks.check_scores(out / "evaluate" / "scores.csv", cells)
        last = (self.traced or self.rounds)[-1]
        for execution in last["stages"]["evaluate"]:
            checks.check_leakage(execution["log"], cfg["eval_inputs"])
        checks.check_r2_floor(last["cv_r2_min"])
        if len(self.digests) != 1:
            raise checks.CheckError(
                f"features/models/scores differ between rounds: {sorted(self.digests)}")


def median_of(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "extract_s": "s", "train_s": "s",
    "evaluate_s": "s", "importance_s": "s", "peak_rss_mb": "MB",
    "artifact_mb": "MB", "cv_r2_min": "R2",
}


def end_to_end(run: Run, setups: list[float]) -> dict:
    """Medians over untraced rounds, stage times over every execution."""
    rs = run.rounds
    done = [r for r in rs if "cv_r2_min" in r]  # rounds where every stage exited 0
    if not done:
        raise RuntimeError("no pipeline round completed")
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s": median_of(rs, lambda r: r["pipeline_s"]),
        "peak_rss_mb": median_of(rs, lambda r: r["peak_rss_mb"]),
        "artifact_mb": median_of(done, lambda r: r["artifact_mb"]),
        "cv_r2_min": done[-1]["cv_r2_min"],
    }
    for stage in ("extract", "train", "evaluate", "importance"):
        values[f"{stage}_s"] = statistics.median(
            e["seconds"] for r in rs for e in r["stages"][stage])
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


# name -> (unit, source, span or count, field); source "setup" is the traced
# write_dataset, "round" a traced pipeline round
PER_LAYER = {
    "synth.generate_take_s": ("s", "setup", "synth.generate_take", "busy_s"),
    "synth.write_dataset_s": ("s", "setup", "synth.write_dataset", "busy_s"),
    "synth.write_dataset_self_s": ("s", "setup", "synth.write_dataset", "self_s"),
    "mocap.load_take_s": ("s", "round", "mocap.load_take", "busy_s"),
    "mocap.load_take_calls": ("count", "round", "mocap.load_take", "calls"),
    "mocap.parsed_mb": ("MB", "round", "mocap.parsed_bytes", "count"),
    "mocap.derive_joints_s": ("s", "round", "mocap.derive_joints", "busy_s"),
    "mocap.velocity_s": ("s", "round", "mocap.velocity", "busy_s"),
    "features.kernel_s": ("s", "round", "features.kernel", "busy_s"),
    "features.kernel_calls": ("count", "round", "features.kernel", "calls"),
    "features.kernel_frames": ("frames", "round", "features.kernel_frames", "count"),
    "features.extract_features_self_s": ("s", "round", "features.extract_features", "self_s"),
    "features.save_feature_matrix_s": ("s", "round", "features.save_feature_matrix", "busy_s"),
    "features.load_feature_matrix_s": ("s", "round", "features.load_feature_matrix", "busy_s"),
    "features.load_feature_matrix_calls": ("count", "round", "features.load_feature_matrix", "calls"),
    "features.csv_mb": ("MB", "round", "features.csv_bytes", "count"),
    "regression.fit_bayes_ridge_s": ("s", "round", "regression.fit_bayes_ridge", "busy_s"),
    "regression.fit_bayes_ridge_calls": ("count", "round", "regression.fit_bayes_ridge", "calls"),
    "regression.bayes_iterations": ("count", "round", "regression.bayes_iterations", "count"),
    "regression.fit_pca_s": ("s", "round", "regression.fit_pca", "busy_s"),
    "regression.fit_pca_calls": ("count", "round", "regression.fit_pca", "calls"),
    "regression.fit_pcr_self_s": ("s", "round", "regression.fit_pcr", "self_s"),
    "regression.svd_count": ("count", "round", None, None),
    "regression.save_model_s": ("s", "round", "regression.save_model", "busy_s"),
    "regression.model_mb": ("MB", "round", "regression.model_bytes", "count"),
    "regression.load_model_s": ("s", "round", "regression.load_model", "busy_s"),
    "evaluation.cross_validate_s": ("s", "round", "evaluation.cross_validate", "busy_s"),
    "evaluation.cross_validate_self_s": ("s", "round", "evaluation.cross_validate", "self_s"),
    "evaluation.cross_validate_calls": ("count", "round", "evaluation.cross_validate", "calls"),
    "evaluation.write_score_table_s": ("s", "round", "evaluation.write_score_table", "busy_s"),
    "importance.importance_from_model_s": ("s", "round", "importance.importance_from_model", "busy_s"),
    "importance.importance_report_s": ("s", "round", "importance.importance_report", "busy_s"),
    "cli.write_run_info_s": ("s", "round", "cli.write_run_info", "busy_s"),
    "cli.hashed_mb": ("MB", "round", "cli.hashed_bytes", "count"),
}


def layer_values(summary: dict) -> dict[str, float]:
    """Per-layer figures of one traced call tree (set-up or round)."""
    values = {}
    for name, (unit, _, key, fld) in PER_LAYER.items():
        if key is None:
            continue
        if fld == "count":
            amount = summary["counts"].get(key, 0)
            values[name] = amount / MB if unit == "MB" else amount
        else:
            values[name] = summary["spans"].get(key, {}).get(fld, 0)
    calls = lambda k: summary["spans"].get(k, {}).get("calls", 0)
    # Bayesian ridge and PCA each factor their design with one SVD
    values["regression.svd_count"] = calls("regression.fit_bayes_ridge") + calls("regression.fit_pca")
    return values


def per_layer(run: Run, setup_summary: dict) -> dict:
    setup_vals = layer_values(setup_summary)
    round_vals = [layer_values(summarize(r["spans"])) for r in run.traced]
    metrics = {}
    for name, (unit, source, _, _) in PER_LAYER.items():
        if source == "setup":
            metrics[name] = (setup_vals[name], unit)
        else:
            metrics[name] = (statistics.median(v[name] for v in round_vals), unit)
    overhead = (median_of(run.traced, lambda r: r["pipeline_s"])
                - median_of(run.rounds, lambda r: r["pipeline_s"]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def blas_threads() -> str:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine_line() -> str:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    np.linalg.svd(np.eye(2))  # loads the BLAS library
    threads = blas_threads()
    return (f"machine cpus={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} blas_threads={threads}")


def run_rounds(run: Run, seconds: float, trace: bool, setups: list[float]) -> None:
    """Whole rounds, as many as fit ``seconds`` to the nearest round; at least one.

    Another round starts while it would end less than half a round after
    ``seconds``, so a run sized for three rounds keeps three when the
    machine is a little slower than usual.

    With tracing, each step is an untraced round followed by a traced one.
    Untraced runs interleave the set-up repeats with the rounds. The speed
    of this kind of shared machine drifts over tens of seconds, and spreading
    the rounds over a longer span averages more of that drift into each
    median. Set-up time does not count towards ``seconds``.
    """
    measured = 0.0
    steps: list[float] = []
    while True:
        if not trace and len(setups) < SETUP_REPEATS:
            setups.append(run.setup())
        t0 = time.monotonic()
        run.pipeline_round(False)
        if trace:
            run.pipeline_round(True)
        steps.append(time.monotonic() - t0)
        measured += steps[-1]
        if measured + statistics.median(steps) / 2 > seconds:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(run.setup())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    # a termination request unwinds like an error, so run_pass ends its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    trace = args.trace == 1
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work, trace)
    correct = True
    setups: list[float] = []
    try:
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                run.setup()
            finally:
                tracer.restore()
            setup_spans = tracer.spans
        run.config_path.write_text(json.dumps(run.cfg, indent=2))
        run_rounds(run, args.seconds, trace, setups)
        try:
            run.check()
        except checks.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        if run.failed:
            print(f"{run.failed} of {run.attempted} operations failed", file=sys.stderr)
        if trace:
            metrics = per_layer(run, summarize(setup_spans))
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(
                {"setup": setup_spans, "rounds": [r["spans"] for r in run.traced]}))
        else:
            metrics = end_to_end(run, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(machine_line())
    print(f"workload={args.workload} seed={args.seed} takes={run.workload.takes} "
          f"frames={run.workload.frames} rounds={len(run.rounds)} "
          f"traced_rounds={len(run.traced)} digest={','.join(sorted(run.digests))}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
