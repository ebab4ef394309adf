"""Command-line pipelines: synth, extract, train, evaluate, importance, report.

One JSON config drives every stage; individual fields can be overridden on
the command line with repeated ``--set key=value`` flags. Each stage writes
its outputs under its own subdirectory of the output root together with the
resolved config and a manifest of input hashes, so identical manifests give
byte-identical outputs. Log lines are ``key=value`` oriented for machine
parsing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .evaluation import (
    INPUT_KINDS,
    ModelSpec,
    ScoreRow,
    ScoreTable,
    cross_validate,
    leaked_groups,
    make_fold_plan,
    r2,
    spearman,
    write_score_table,
    TRAIT_CORRELATION_REFERENCE,
)
from .features import (
    apply_gaussian_stats,
    extract_features,
    gaussian_stats,
    load_feature_matrix,
    save_feature_matrix,
    stack_features,
)
from .importance import importance_from_model, importance_report
from .mocap import derive_joints, load_take, velocity
from .regression import (
    PCR_DEFAULT_COMPONENTS,
    TRAIT_NAMES,
    build_dataset,
    centered_svd,
    load_model,
    load_trait_table,
    predict_means,
    save_model,
)
from .synth import SynthSpec, write_dataset

ENV_OUT_ROOT = "MOVETRAIT_OUT"


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs, serializable without loss."""

    takes_dir: str | None = None
    traits_csv: str | None = None
    features_dir: str | None = None      # defaults to <output_dir>/extract
    output_dir: str | None = None        # defaults to $MOVETRAIT_OUT or ./movetrait_out
    sigma: float = 12.0
    extract_kinds: tuple[str, ...] = ("position", "velocity")
    eval_inputs: tuple[str, ...] = ("position", "position_n", "velocity", "velocity_n")
    model_kinds: tuple[str, ...] = ("pcr", "bayes_ridge")
    train_input: str = "position"        # one of the four eval input labels
    train_model: str = "bayes_ridge"
    traits: tuple[str, ...] = TRAIT_NAMES
    dataset_mode: str = "per_stimulus"
    pcr_components: dict = field(default_factory=dict)  # base kind -> k
    n_folds: int = 5
    fold_seed: int = 0
    grouping: str = "participant"        # "none" | "participant"
    pooled_metrics: bool = False
    bayes_tol: float = 1e-3
    bayes_max_iter: int = 300
    workers: int = 1

    def __post_init__(self):
        """Reject bad field values before any stage reads its inputs."""
        if self.grouping not in ("none", "participant"):
            raise ValueError(
                f"grouping must be 'none' or 'participant', got {self.grouping!r}")
        if (isinstance(self.sigma, bool) or not isinstance(self.sigma, (int, float))
                or not math.isfinite(self.sigma) or self.sigma <= 0):
            raise ValueError(f"sigma must be a finite number > 0, got {self.sigma!r}")
        if isinstance(self.workers, bool) or not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {self.workers!r}")
        for kind in self.extract_kinds:
            if kind not in ("position", "velocity"):
                raise ValueError(
                    f"extract_kinds entries must be 'position' or 'velocity', got {kind!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        kwargs = dict(doc)
        for key in ("extract_kinds", "eval_inputs", "model_kinds", "traits"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key in ("extract_kinds", "eval_inputs", "model_kinds", "traits"):
            doc[key] = list(doc[key])
        return doc

    def resolved_output_dir(self) -> Path:
        if self.output_dir:
            return Path(self.output_dir)
        return Path(os.environ.get(ENV_OUT_ROOT, "movetrait_out"))

    def resolved_features_dir(self) -> Path:
        if self.features_dir:
            return Path(self.features_dir)
        return self.resolved_output_dir() / "extract"


def apply_overrides(cfg: PipelineConfig, overrides: list[str]) -> PipelineConfig:
    """Apply ``key=value`` overrides; values parse as JSON, else as strings."""
    doc = cfg.to_dict()
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"override {item!r} is not key=value")
        if key not in doc:
            raise ValueError(f"unknown config field {key!r}")
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    return PipelineConfig.from_dict(doc)


def log(event: str, **kv) -> None:
    parts = [f"event={event}"]
    for k, v in kv.items():
        if isinstance(v, float):
            parts.append(f"{k}={v:.6g}")
        else:
            parts.append(f"{k}={v}")
    print(" ".join(parts))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(cfg: PipelineConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_run_info(out_dir: Path, cfg: PipelineConfig, inputs: dict[str, Path],
                   digests: dict[str, str] | None = None) -> None:
    """Resolved config copy plus a manifest of input hashes, no timestamps.

    ``digests`` holds the sha256 of inputs whose bytes the stage already
    read, by input name; every other input is read and hashed here.
    """
    digests = digests or {}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    manifest = {
        "config_sha256": config_hash(cfg),
        "inputs": {
            name: {"path": str(path), "sha256": digests.get(name) or sha256_file(path)}
            for name, path in sorted(inputs.items())
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _base_kind(input_kind: str) -> str:
    if input_kind not in INPUT_KINDS:
        raise ValueError(f"unknown input kind {input_kind!r}")
    return input_kind.removesuffix("_n")


def _resolve_k(cfg: PipelineConfig, base_kind: str, n_rows: int, rows_of: str) -> int:
    """PCR k from the config, checked against the rows PCR will be fitted on."""
    k = int(cfg.pcr_components.get(base_kind, PCR_DEFAULT_COMPONENTS[base_kind]))
    if k > n_rows - 1:
        raise ValueError(
            f"PCR component count {k} exceeds rows-1 ({n_rows - 1}) of {rows_of} "
            f"({n_rows} rows) for {base_kind} features; set pcr_components in the config"
        )
    return k


def _featurize_take(path: Path, cfg: PipelineConfig) -> tuple[dict, str]:
    """One take's features by kind, and the sha256 of the bytes they came from.

    The file is read once: the same bytes are parsed and hashed.
    """
    raw = path.read_bytes()
    take = load_take(path, raw=raw)  # its TakeFormatErrors already carry file:line
    digest = hashlib.sha256(raw).hexdigest()
    out = {}
    try:
        joints = derive_joints(take)
        if "position" in cfg.extract_kinds:
            out["position"] = extract_features(joints, cfg.sigma)
        if "velocity" in cfg.extract_kinds:
            out["velocity"] = extract_features(velocity(joints), cfg.sigma)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return out, digest


def cmd_extract(cfg: PipelineConfig) -> dict:
    """Takes directory -> one feature CSV per requested kind."""
    takes_dir = Path(cfg.takes_dir) if cfg.takes_dir else None
    if takes_dir is None or not takes_dir.is_dir():
        raise ValueError(f"takes_dir {cfg.takes_dir!r} is not a directory")
    take_paths = sorted(takes_dir.glob("*.tsv"))
    if not take_paths:
        raise ValueError(f"no .tsv takes found in {takes_dir}")

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        per_take = list(pool.map(_featurize_take, take_paths, repeat(cfg)))

    features_dir = cfg.resolved_features_dir()
    features_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for kind in cfg.extract_kinds:
        matrix = stack_features([features[kind] for features, _ in per_take])
        path = features_dir / f"features_{kind}.csv"
        save_feature_matrix(matrix, path)
        written[kind] = path
        log("extract", kind=kind, takes=len(take_paths),
            rows=matrix.n_samples, cols=matrix.n_features, out=path)

    inputs = {p.name: p for p in take_paths}
    inputs.update({
        p.with_suffix(".json").name: p.with_suffix(".json")
        for p in take_paths if p.with_suffix(".json").exists()
    })
    digests = {p.name: digest for p, (_, digest) in zip(take_paths, per_take)}
    write_run_info(features_dir, cfg, inputs, digests)
    return {"features": written, "takes": len(take_paths)}


def _load_features_for(cfg: PipelineConfig, base_kind: str):
    path = cfg.resolved_features_dir() / f"features_{base_kind}.csv"
    if not path.exists():
        raise ValueError(f"feature file {path} not found; run extract first")
    return load_feature_matrix(path), path


def _require_traits(cfg: PipelineConfig) -> tuple[dict, Path]:
    if not cfg.traits_csv or not Path(cfg.traits_csv).exists():
        raise ValueError(f"traits_csv {cfg.traits_csv!r} not found")
    path = Path(cfg.traits_csv)
    return load_trait_table(path), path


def cmd_train(cfg: PipelineConfig) -> dict:
    """Fit one model per requested trait on the full feature matrix.

    The design is factored once; every trait's model is fitted from it.
    """
    base = _base_kind(cfg.train_input)
    matrix, features_path = _load_features_for(cfg, base)
    table, traits_path = _require_traits(cfg)
    out_dir = cfg.resolved_output_dir() / "train"
    out_dir.mkdir(parents=True, exist_ok=True)

    provenance = {
        "config_sha256": config_hash(cfg),
        "features_sha256": sha256_file(features_path),
        "traits_sha256": sha256_file(traits_path),
        "input_kind": cfg.train_input,
        "dataset_mode": cfg.dataset_mode,
        "model_kind": cfg.train_model,
    }
    dataset = build_dataset(matrix, table, cfg.traits, cfg.dataset_mode)
    X = dataset.X
    if cfg.train_input.endswith("_n"):
        X = apply_gaussian_stats(X, *gaussian_stats(X))  # as cross_validate does per fold
    rows = X.shape[0]
    spec = ModelSpec(
        kind=cfg.train_model,
        k=(_resolve_k(cfg, base, rows, "the training set")
           if cfg.train_model == "pcr" else None),
        tol=cfg.bayes_tol,
        max_iter=cfg.bayes_max_iter,
    )
    spec.check()
    factor = centered_svd(X)
    results = {}
    for trait, y in zip(cfg.traits, dataset.y.T):
        model = spec.fit(factor, y)
        diagnostics = {}
        if spec.kind == "bayes_ridge":
            diagnostics = {
                "converged": model.converged, "iterations": model.iterations,
                "alpha": model.alpha, "lambda": model.lambda_, "gamma": model.gamma,
            }
        train_r2 = r2(y, predict_means(model, X))
        path = out_dir / f"model_{trait}.json"
        save_model(model, path, provenance=provenance)
        log("train", trait=trait, model=cfg.train_model, rows=rows,
            train_r2=train_r2, **diagnostics, out=path)
        results[trait] = {"path": path, "train_r2": train_r2}

    write_run_info(out_dir, cfg, {"features": features_path, "traits": traits_path})
    return results


def cmd_evaluate(cfg: PipelineConfig) -> ScoreTable:
    """Cross-validated score table over input kinds x models x traits.

    Each feature file is read once per base kind. Every fold plan and PCR
    component count is checked before the first fit; then one
    ``cross_validate`` per input kind scores all models and traits.
    """
    table, traits_path = _require_traits(cfg)
    out_dir = cfg.resolved_output_dir() / "evaluate"
    inputs: dict[str, Path] = {"traits": traits_path}
    designs = {}   # base kind -> (dataset, plan, specs)
    for input_kind in cfg.eval_inputs:
        base = _base_kind(input_kind)
        if base not in designs:
            matrix, features_path = _load_features_for(cfg, base)
            inputs[f"features_{base}"] = features_path
            dataset = build_dataset(matrix, table, cfg.traits, cfg.dataset_mode)
            groups = dataset.participants if cfg.grouping == "participant" else None
            plan = make_fold_plan(len(dataset.X), cfg.n_folds, cfg.fold_seed, groups)
            specs = [
                ModelSpec(
                    kind=model_kind,
                    k=(_resolve_k(cfg, base, plan.smallest_train_size,
                                  "the smallest training fold")
                       if model_kind == "pcr" else None),
                    tol=cfg.bayes_tol,
                    max_iter=cfg.bayes_max_iter,
                )
                for model_kind in cfg.model_kinds
            ]
            designs[base] = (dataset, plan, specs)
        dataset, plan, _ = designs[base]
        log("leakage_audit", input=input_kind, grouping=cfg.grouping,
            shared_participants=leaked_groups(plan, dataset.participants))

    rows: list[ScoreRow] = []
    for input_kind in cfg.eval_inputs:
        dataset, plan, specs = designs[_base_kind(input_kind)]
        results = cross_validate(
            dataset.X, dataset.y, specs, plan,
            normalize=input_kind.endswith("_n"), pooled=cfg.pooled_metrics,
        )
        for spec, per_trait in zip(specs, results):
            for trait, result in zip(cfg.traits, per_trait):
                diagnostics = {}
                if spec.kind == "bayes_ridge":
                    diagnostics = {"converged_folds": result.converged_folds,
                                   "max_iterations": result.max_iterations}
                log("evaluate", input=input_kind, model=spec.kind, trait=trait,
                    mean_rmse=result.mean_rmse, mean_r2=result.mean_r2, **diagnostics)
                rows.append(ScoreRow(input_kind, spec.kind, trait, result))
    score_table = ScoreTable(
        rows=tuple(rows), n_folds=cfg.n_folds, seed=cfg.fold_seed, grouping=cfg.grouping
    )
    paths = write_score_table(score_table, out_dir)
    write_run_info(out_dir, cfg, inputs)
    log("evaluate_done", rows=len(rows), csv=paths["csv"])
    return score_table


def cmd_importance(cfg: PipelineConfig) -> dict:
    """Per-joint importance CSVs and radar SVGs from the trained models."""
    models_dir = cfg.resolved_output_dir() / "train"
    profiles = {}
    inputs: dict[str, Path] = {}
    for trait in cfg.traits:
        path = models_dir / f"model_{trait}.json"
        if not path.exists():
            raise ValueError(f"model file {path} not found; run train first")
        profiles[trait] = importance_from_model(load_model(path), trait)
        inputs[f"model_{trait}"] = path
    out_dir = cfg.resolved_output_dir() / "importance"
    written = importance_report(profiles, out_dir)
    write_run_info(out_dir, cfg, inputs)
    log("importance", traits=len(profiles), out=out_dir)
    return written


def cmd_synth(spec_path: str | Path, out_dir: str | Path) -> dict:
    """Generate a synthetic dataset in the take TSV + sidecar format."""
    spec = SynthSpec.from_json(spec_path)
    info = write_dataset(spec, out_dir)
    log("synth", takes=info["takes"], participants=info["participants"],
        out=info["dir"])
    return info


def cmd_report(cfg: PipelineConfig) -> Path:
    """Combined report: measured trait correlations plus the score table."""
    table, traits_path = _require_traits(cfg)
    out_dir = cfg.resolved_output_dir() / "report"
    out_dir.mkdir(parents=True, exist_ok=True)

    pids = sorted(table)
    traits = [t for t in cfg.traits if all(t in table[p] for p in pids)]
    lines = ["Spearman correlation between trait targets"]
    lines.append("(reference values from the original private dataset in parentheses)")
    csv_lines = ["trait_a,trait_b,spearman,reference"]
    if len(pids) < 3:
        lines.append("  (needs at least 3 participants, skipped)")
        traits = []
    for i, ta in enumerate(traits):
        for tb in traits[:i]:
            a = np.array([table[p][ta] for p in pids])
            b = np.array([table[p][tb] for p in pids])
            rho = spearman(a, b)
            ref = TRAIT_CORRELATION_REFERENCE.get(
                (ta, tb), TRAIT_CORRELATION_REFERENCE.get((tb, ta))
            )
            ref_txt = f" (ref {ref:+.3f})" if ref is not None else ""
            lines.append(f"  {ta:>2} vs {tb:>2}: {rho:+.3f}{ref_txt}")
            csv_lines.append(
                f"{ta},{tb},{rho:.17g},{'' if ref is None else ref}"
            )
    (out_dir / "trait_spearman.csv").write_text("\n".join(csv_lines) + "\n")

    scores_txt = cfg.resolved_output_dir() / "evaluate" / "scores.txt"
    if scores_txt.exists():
        lines.append("")
        lines.append(scores_txt.read_text().rstrip("\n"))
    report_path = out_dir / "report.txt"
    report_path.write_text("\n".join(lines) + "\n")
    write_run_info(out_dir, cfg, {"traits": traits_path})
    log("report", out=report_path)
    return report_path


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.output_dir:
        cfg = replace(cfg, output_dir=args.output_dir)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="movetrait",
        description="Movement-to-trait pipeline: features, models, scores, importance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline_command(name: str, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("-c", "--config", help="pipeline config JSON")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field")
        p.add_argument("--output-dir", help="override the output root")
        p.add_argument("--workers", type=int, help="worker pool size")
        return p

    add_pipeline_command("extract", "compute correntropy features from takes")
    add_pipeline_command("train", "fit one model per trait")
    add_pipeline_command("evaluate", "cross-validated score tables")
    add_pipeline_command("importance", "joint importance CSVs and radar SVGs")
    add_pipeline_command("report", "combined report with trait correlations")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True, help="synth spec JSON")
    p_synth.add_argument("--out", required=True, help="dataset output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            cmd_synth(args.spec, args.out)
        else:
            cfg = _load_config(args)
            handler = {
                "extract": cmd_extract,
                "train": cmd_train,
                "evaluate": cmd_evaluate,
                "importance": cmd_importance,
                "report": cmd_report,
            }[args.command]
            handler(cfg)
    except (ValueError, TypeError, KeyError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
