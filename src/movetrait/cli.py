"""Command-line pipelines: synth, extract, train, evaluate, importance, report.

One JSON config drives every stage; individual fields can be overridden on
the command line with repeated ``--set key=value`` flags. Each stage writes
its outputs under its own subdirectory of the output root together with the
resolved config and a manifest of its inputs. Each stage reads each input
file once, and the manifest lists every file it read (takes and their
sidecars, feature CSVs and their row sidecars, the trait table, model files,
``scores.txt``) with the sha256 of the bytes it parsed, so identical
manifests give byte-identical outputs. Log lines are ``key=value`` oriented for machine
parsing; each stage's last line carries ``seconds=``, the stage's wall time,
which goes to stdout only and into no output file.

``train`` and ``evaluate`` run every loaded OpenBLAS on one thread (see
``one_blas_thread``), so their models and scores do not depend on the CPU
count; each logs ``event=blas`` first.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .evaluation import (
    INPUT_KINDS,
    MODEL_KINDS,
    FoldPlan,
    ModelSpec,
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
    ROW_IDS,
    apply_gaussian_stats,
    extract_features,
    gaussian_stats,
    load_feature_matrix,
    load_feature_rows,
    rows_path,
    save_feature_matrix,
)
from .importance import importance_from_model, importance_report
from .mocap import (check_take_header, check_velocity_rate, derive_joints, load_take,
                    parse_sidecar, velocity)
from .regression import (
    PCR_DEFAULT_COMPONENTS,
    TRAIT_NAMES,
    DatasetMode,
    build_dataset,
    centered_svd,
    load_model,
    load_trait_table,
    predict_means,
    read_json_object,
    save_model,
)
from .synth import SynthSpec, write_dataset

ENV_OUT_ROOT = "MOVETRAIT_OUT"
_LIST_FIELDS = ("extract_kinds", "eval_inputs", "model_kinds", "traits")


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
    bayes_tol: float = 1e-3
    bayes_max_iter: int = 300
    workers: int = 1

    def __post_init__(self):
        """Reject bad field values, naming the field, before any stage reads its inputs."""
        def number(v):
            return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

        def integer(v):
            return isinstance(v, int) and not isinstance(v, bool)

        def entries(v, allowed):
            return isinstance(v, (list, tuple)) and all(k in allowed for k in v)

        def distinct(v):
            return not isinstance(v, (list, tuple)) or all(k not in v[:i] for i, k in enumerate(v))

        kinds = ("position", "velocity")
        modes = tuple(mode.value for mode in DatasetMode)
        rules = (
            ("grouping", self.grouping in ("none", "participant"),
             "must be 'none' or 'participant'"),
            ("sigma", number(self.sigma) and self.sigma > 0, "must be a finite number > 0"),
            ("bayes_tol", number(self.bayes_tol) and self.bayes_tol > 0,
             "must be a finite number > 0"),
            ("workers", integer(self.workers) and self.workers >= 1,
             "must be a positive integer"),
            ("bayes_max_iter", integer(self.bayes_max_iter) and self.bayes_max_iter >= 1,
             "must be a positive integer"),
            ("n_folds", integer(self.n_folds) and self.n_folds >= 2, "must be an integer >= 2"),
            ("fold_seed", integer(self.fold_seed) and self.fold_seed >= 0,
             "must be an integer >= 0"),
            ("dataset_mode", self.dataset_mode in modes, f"must be one of {modes}"),
            ("train_input", self.train_input in INPUT_KINDS, f"must be one of {INPUT_KINDS}"),
            ("train_model", self.train_model in MODEL_KINDS, f"must be one of {MODEL_KINDS}"),
            ("extract_kinds", entries(self.extract_kinds, kinds),
             "entries must be 'position' or 'velocity'"),
            ("eval_inputs", entries(self.eval_inputs, INPUT_KINDS),
             f"entries must be in {INPUT_KINDS}"),
            ("model_kinds", entries(self.model_kinds, MODEL_KINDS),
             f"entries must be in {MODEL_KINDS}"),
            ("traits", isinstance(self.traits, (list, tuple))
             and all(isinstance(t, str) for t in self.traits), "must be a list of names"),
            ("pcr_components", isinstance(self.pcr_components, dict) and all(
                k in kinds and integer(v) and v >= 1 for k, v in self.pcr_components.items()),
             "must map 'position' or 'velocity' to a positive integer"),
            *((name, bool(getattr(self, name)), "must list at least one entry")
              for name in _LIST_FIELDS),
            *((name, distinct(getattr(self, name)), "must list each entry once")
              for name in _LIST_FIELDS),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        unknown = sorted(doc.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config field {unknown[0]!r}")
        kwargs = dict(doc)
        for key in _LIST_FIELDS:
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        """Read a config file; one that is not a JSON object is a ValueError naming it."""
        return cls.from_dict(read_json_object(path, "config file"))

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key in _LIST_FIELDS:
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
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    return PipelineConfig.from_dict(doc)


def log(event: str, **kv) -> None:
    """One ``event=<event> key=value ...`` line on stdout; every value is
    written with ``str``, so a logged float reads back as the same float."""
    print(" ".join([f"event={event}"] + [f"{k}={v}" for k, v in kv.items()]))


# No stage calls this: each hashes the bytes it parsed (``_read_recorded``).
# It stays because perfbench/tracing.py traces it by name.
def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# Where the inputs and outputs live and how many workers run change no output
# byte; the manifests and model provenance hash the inputs' contents instead.
_UNHASHED_FIELDS = ("takes_dir", "traits_csv", "features_dir", "output_dir", "workers")


def config_hash(cfg: PipelineConfig) -> str:
    """sha256 of the config fields that can change an output."""
    doc = {k: v for k, v in cfg.to_dict().items() if k not in _UNHASHED_FIELDS}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _read_recorded(path: Path) -> tuple[bytes, tuple[Path, str]]:
    """A file's bytes and its manifest record: the path and the sha256 of those bytes."""
    raw = path.read_bytes()
    return raw, (path, hashlib.sha256(raw).hexdigest())


def write_run_info(out_dir: Path, cfg: PipelineConfig,
                   inputs: dict[str, tuple[Path, str]]) -> None:
    """Resolved config copy plus a manifest of input hashes, no timestamps.

    ``inputs`` maps each input's name to its ``_read_recorded`` record.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    manifest = {
        "config_sha256": config_hash(cfg),
        "inputs": {name: {"path": str(path), "sha256": digest}
                   for name, (path, digest) in inputs.items()},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _base_kind(input_kind: str) -> str:
    return input_kind.removesuffix("_n")


def _model_specs(cfg: PipelineConfig, kinds: tuple[str, ...], base_kind: str, n_rows: int,
                 rows_of: str) -> list[ModelSpec]:
    """One ModelSpec per model kind, PCR's k from the config checked against
    the rows PCR will be fitted on."""
    k = int(cfg.pcr_components.get(base_kind, PCR_DEFAULT_COMPONENTS[base_kind]))
    if "pcr" in kinds and k > n_rows - 1:
        raise ValueError(
            f"PCR component count {k} exceeds rows-1 ({n_rows - 1}) of {rows_of} "
            f"({n_rows} rows) for {base_kind} features; set pcr_components in the config"
        )
    return [ModelSpec(kind=kind, k=k if kind == "pcr" else None,
                      tol=cfg.bayes_tol, max_iter=cfg.bayes_max_iter) for kind in kinds]


def _read_take_ids(
    take_paths: list[Path], cfg: PipelineConfig,
) -> tuple[list[dict], list[tuple[str, str]], dict[str, tuple[Path, str]]]:
    """Every take's checked sidecar and (participant_id, stimulus_id), read,
    with each take's header (``check_take_header``), before any take is parsed.

    Also returns the manifest record of each sidecar file read, by file
    name. A bad frame rate (``parse_sidecar``; with velocity extraction, one
    at or below twice the filter cutoff), a missing or empty id, a pair
    another take already has, or a bad header is a ValueError naming the take
    files involved; a missing sidecar is an OSError naming the sidecar.
    """
    sidecars, first, records = [], {}, {}
    for path in take_paths:
        side_path = path.with_suffix(".json")
        raw, records[side_path.name] = _read_recorded(side_path)
        side = parse_sidecar(raw, path)
        for key in ROW_IDS:
            if side.get(key) in (None, ""):
                raise ValueError(f"{path}: its sidecar gives no {key}")
        if "velocity" in cfg.extract_kinds:
            try:
                check_velocity_rate(side["frame_rate"])
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        ids = tuple(str(side[key]) for key in ROW_IDS)
        if ids in first:
            raise ValueError(f"{first[ids]} and {path} are both participant {ids[0]!r}, "
                             f"stimulus {ids[1]!r}")
        first[ids] = path
        check_take_header(path)
        sidecars.append(side)
    return sidecars, list(first), records


def _featurize_take(path: Path, side: dict, cfg: PipelineConfig) -> tuple[dict, tuple]:
    """One take's feature vectors by kind and the take's manifest record;
    ``side`` is the take's sidecar as ``_read_take_ids`` checked it, and
    gives the frame rate.

    The file is read once: the same bytes are parsed and hashed. Each
    layer's input is dropped once the next layer has returned (the bytes
    after parsing, the samples after ``derive_joints``, the joints after
    ``velocity``), so a worker never holds a take's samples, joints and
    velocities at once.
    """
    raw, record = _read_recorded(path)
    markers = load_take(path, raw=raw)  # its TakeFormatErrors carry file:line
    del raw
    out = {}
    try:
        joints = derive_joints(markers)
        del markers
        if "position" in cfg.extract_kinds:
            out["position"] = extract_features(joints, cfg.sigma)
        if "velocity" in cfg.extract_kinds:
            moving = velocity(joints, side["frame_rate"])
            del joints
            out["velocity"] = extract_features(moving, cfg.sigma)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return out, record


def cmd_extract(cfg: PipelineConfig) -> dict:
    """Takes directory -> one feature CSV per requested kind."""
    start = time.perf_counter()
    takes_dir = Path(cfg.takes_dir) if cfg.takes_dir else None
    if takes_dir is None or not takes_dir.is_dir():
        raise ValueError(f"takes_dir {cfg.takes_dir!r} is not a directory")
    take_paths = sorted(takes_dir.glob("*.tsv"))
    if not take_paths:
        raise ValueError(f"no .tsv takes found in {takes_dir}")
    sidecars, ids, sidecar_records = _read_take_ids(take_paths, cfg)

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        per_take = list(pool.map(_featurize_take, take_paths, sidecars, repeat(cfg)))

    features_dir = cfg.resolved_features_dir()
    features_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for kind in cfg.extract_kinds:
        values = np.stack([features[kind] for features, _ in per_take])
        path = features_dir / f"features_{kind}.csv"
        save_feature_matrix(values, path, ids)
        written[kind] = path
        log("extract", kind=kind, takes=len(take_paths),
            rows=values.shape[0], cols=values.shape[1], out=path,
            seconds=time.perf_counter() - start)

    inputs = {path.name: record for path, (_, record) in zip(take_paths, per_take)}
    write_run_info(features_dir, cfg, {**inputs, **sidecar_records})
    return {"features": written, "takes": len(take_paths)}


def _load_design(cfg: PipelineConfig, base_kind: str, table: dict, traits_path: Path,
                 name: str) -> tuple[np.ndarray, np.ndarray, tuple, dict]:
    """One base kind's ``build_dataset`` and the manifest records of the
    feature CSV (``name``) and its row sidecar (``name_rows``).

    Every row's participant is checked against the trait table, from the
    row sidecar, before the CSV is read. Each file is read once; the bytes
    parsed are the bytes hashed. A configured trait whose target column is
    constant over the design is a ValueError naming it, the feature file
    and the trait table, raised before any fit.
    """
    path = cfg.resolved_features_dir() / f"features_{base_kind}.csv"
    if not path.exists():
        raise ValueError(f"feature file {path} not found; run extract first")
    rows_raw, rows_record = _read_recorded(rows_path(path))
    rows = load_feature_rows(path, raw=rows_raw)
    pids = [pid for pid, _ in rows]
    for pid in pids:
        for trait in cfg.traits:
            if trait not in table.get(pid, {}):
                raise ValueError(f"{path}: participant {pid!r} has no "
                                 f"{trait!r} value in {traits_path}")
    raw, record = _read_recorded(path)
    values = load_feature_matrix(path, rows, raw=raw)
    del raw   # not held through build_dataset's copy of the values
    X, Y, participants = build_dataset(values, pids, table, cfg.traits, cfg.dataset_mode)
    for trait, y in zip(cfg.traits, Y.T):
        if y.min() == y.max():
            raise ValueError(f"{path}: trait {trait!r} is {y[0]:g} on every row, as "
                             f"{traits_path} gives it; a constant target cannot be scored")
    return X, Y, participants, {name: record, f"{name}_rows": rows_record}


def _require_traits(cfg: PipelineConfig) -> tuple[dict, tuple[Path, str]]:
    """The trait table, checked to hold every configured trait before features
    load, and its manifest record.

    The file is read once; the bytes parsed are the bytes hashed.
    """
    if not cfg.traits_csv or not Path(cfg.traits_csv).exists():
        raise ValueError(f"traits_csv {cfg.traits_csv!r} not found")
    path = Path(cfg.traits_csv)
    raw, record = _read_recorded(path)
    table = load_trait_table(path, raw=raw)
    missing = [t for t in cfg.traits if all(t not in row for row in table.values())]
    if missing:
        raise ValueError(f"traits {missing} have no column in {path}")
    for trait in cfg.traits:
        lacking = [pid for pid, row in table.items() if trait not in row]
        if lacking:
            raise ValueError(f"{path}: participants {lacking} have no '{trait}' value")
    return table, record


def cmd_train(cfg: PipelineConfig) -> dict:
    """Fit one model per requested trait on the full feature matrix.

    The design is factored once; every trait's model is fitted from it.
    """
    start = time.perf_counter()
    table, traits_record = _require_traits(cfg)
    base = _base_kind(cfg.train_input)
    X, Y, _, inputs = _load_design(cfg, base, table, traits_record[0], "features")
    inputs["traits"] = traits_record
    out_dir = cfg.resolved_output_dir() / "train"
    out_dir.mkdir(parents=True, exist_ok=True)

    provenance = {
        "config_sha256": config_hash(cfg),
        "features_sha256": inputs["features"][1],
        "traits_sha256": inputs["traits"][1],
        "input_kind": cfg.train_input,
        "dataset_mode": cfg.dataset_mode,
        "model_kind": cfg.train_model,
    }
    if cfg.train_input.endswith("_n"):
        X = apply_gaussian_stats(X, *gaussian_stats(X))  # as cross_validate does per fold
    rows = X.shape[0]
    spec, = _model_specs(cfg, (cfg.train_model,), base, rows, "the training set")
    factor = centered_svd(X)
    results = {}
    for trait, y in zip(cfg.traits, Y.T):
        model, diagnostics = spec.fit(factor, y)
        train_r2 = r2(y, predict_means(model, X))
        path = out_dir / f"model_{trait}.json"
        save_model(model, path, provenance=provenance)
        log("train", trait=trait, model=cfg.train_model, rows=rows,
            train_r2=train_r2, **diagnostics, out=path,
            seconds=time.perf_counter() - start)
        results[trait] = {"path": path, "train_r2": train_r2}

    write_run_info(out_dir, cfg, inputs)
    return results


def _check_fold_targets(traits: tuple[str, ...], Y: np.ndarray, participants: tuple,
                        plan: FoldPlan, path: Path) -> None:
    """A ValueError naming ``path``, the fold and its participants if a fold
    has fewer than 2 validation rows or a trait's target is the same on
    every validation row of a fold: r2 is undefined there."""
    for f in range(plan.n_folds):
        val = plan.assignments == f
        names = ", ".join(dict.fromkeys(p for p, v in zip(participants, val) if v))
        if np.count_nonzero(val) < 2:
            raise ValueError(f"{path}: fold {f} (participants {names}) has fewer than 2 "
                             f"validation rows")
        for trait, y in zip(traits, Y[val].T):
            if y.min() == y.max():
                raise ValueError(f"{path}: trait {trait!r} is {y[0]:g} on every validation "
                                 f"row of fold {f} (participants {names}); its r2 is undefined")


def cmd_evaluate(cfg: PipelineConfig) -> ScoreTable:
    """Cross-validated score table over input kinds x models x traits.

    Each feature file is read once per base kind. Every fold plan, PCR
    component count and fold's validation targets are checked before the
    first fit; then one ``cross_validate`` per input kind scores all models
    and traits.
    """
    start = time.perf_counter()
    table, traits_record = _require_traits(cfg)
    out_dir = cfg.resolved_output_dir() / "evaluate"
    inputs = {"traits": traits_record}
    designs = {}   # base kind -> (X, Y, participants, plan, specs)
    for input_kind in cfg.eval_inputs:
        base = _base_kind(input_kind)
        if base not in designs:
            X, Y, participants, records = _load_design(cfg, base, table, traits_record[0],
                                                       f"features_{base}")
            inputs.update(records)
            path = inputs[f"features_{base}"][0]
            groups = participants if cfg.grouping == "participant" else None
            try:
                plan = make_fold_plan(len(X), cfg.n_folds, cfg.fold_seed, groups)
            except ValueError as exc:
                raise ValueError(f"{path}: n_folds={cfg.n_folds}: {exc}") from exc
            specs = _model_specs(cfg, cfg.model_kinds, base, plan.smallest_train_size,
                                 "the smallest training fold")
            _check_fold_targets(cfg.traits, Y, participants, plan, path)
            designs[base] = (X, Y, participants, plan, specs)
        _, _, participants, plan, _ = designs[base]
        shared = leaked_groups(plan, participants)
        log("leakage_audit", input=input_kind, grouping=cfg.grouping,
            shared_participants=shared)
        if shared and cfg.grouping == "participant":
            raise ValueError(f"{inputs[f'features_{base}'][0]}: {shared} participants are "
                             f"split across folds despite grouping=participant")

    cells = {}
    for input_kind in cfg.eval_inputs:
        X, Y, _, plan, specs = designs[_base_kind(input_kind)]
        results = cross_validate(X, Y, specs, plan, normalize=input_kind.endswith("_n"))
        for spec, per_trait in zip(specs, results):
            for trait, result in zip(cfg.traits, per_trait):
                log("evaluate", input=input_kind, model=spec.kind, trait=trait,
                    mean_rmse=result.mean_rmse, mean_r2=result.mean_r2, **result.diagnostics)
                cells[input_kind, spec.kind, trait] = result
    score_table = ScoreTable(
        cells=cells, n_folds=cfg.n_folds, seed=cfg.fold_seed, grouping=cfg.grouping
    )
    paths = write_score_table(score_table, out_dir)
    write_run_info(out_dir, cfg, inputs)
    log("evaluate_done", rows=len(cells), csv=paths["csv"],
        seconds=time.perf_counter() - start)
    return score_table


def cmd_importance(cfg: PipelineConfig) -> dict:
    """Per-joint importance CSVs and radar SVGs from the trained models."""
    start = time.perf_counter()
    models_dir = cfg.resolved_output_dir() / "train"
    profiles, inputs = {}, {}
    for trait in cfg.traits:
        path = models_dir / f"model_{trait}.json"
        if not path.exists():
            raise ValueError(f"model file {path} not found; run train first")
        raw, inputs[f"model_{trait}"] = _read_recorded(path)
        profiles[trait] = importance_from_model(load_model(path, raw=raw), trait)
    out_dir = cfg.resolved_output_dir() / "importance"
    written = importance_report(profiles, out_dir)
    write_run_info(out_dir, cfg, inputs)
    log("importance", traits=len(profiles), out=out_dir,
        seconds=time.perf_counter() - start)
    return written


def cmd_synth(spec_path: str | Path, out_dir: str | Path) -> dict:
    """Generate a synthetic dataset in the take TSV + sidecar format."""
    start = time.perf_counter()
    spec = SynthSpec.from_json(spec_path)
    info = write_dataset(spec, out_dir)
    log("synth", takes=info["takes"], participants=info["participants"],
        out=info["dir"], seconds=time.perf_counter() - start)
    return info


def cmd_report(cfg: PipelineConfig) -> Path:
    """Combined report: measured trait correlations plus the score table."""
    start = time.perf_counter()
    table, traits_record = _require_traits(cfg)
    pids = sorted(table)
    traits = cfg.traits if len(pids) >= 3 else ()  # Spearman needs 3 samples
    for trait in traits:
        if len({table[p][trait] for p in pids}) == 1:
            raise ValueError(f"{traits_record[0]}: trait {trait!r} is {table[pids[0]][trait]:g} "
                             f"for every participant; its rank correlations are undefined")
    out_dir = cfg.resolved_output_dir() / "report"
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = ["Spearman correlation between trait targets"]
    lines.append("(reference values from the original private dataset in parentheses)")
    csv_lines = ["trait_a,trait_b,spearman,reference"]
    if not traits:
        lines.append("  (needs at least 3 participants, skipped)")
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

    inputs = {"traits": traits_record}
    scores_txt = cfg.resolved_output_dir() / "evaluate" / "scores.txt"
    if scores_txt.exists():
        raw, inputs["scores_txt"] = _read_recorded(scores_txt)
        lines.append("")
        lines.append(raw.decode("utf-8").rstrip("\n"))
    report_path = out_dir / "report.txt"
    report_path.write_text("\n".join(lines) + "\n")
    write_run_info(out_dir, cfg, inputs)
    log("report", out=report_path, seconds=time.perf_counter() - start)
    return report_path


# (getter, setter) symbol pairs, in the order asked of each loaded OpenBLAS:
# numpy's 64-bit-index build, scipy's own build, a system OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def blas_thread_calls() -> list[tuple]:
    """The (get, set) thread-count functions of every loaded OpenBLAS.

    Found through ``/proc/self/maps``; none off Linux or for other BLAS builds.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    calls = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for names in _BLAS_THREAD_SYMBOLS:
            get, set_threads = (getattr(handle, name, None) for name in names)
            if get is not None and set_threads is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                calls.append((get, set_threads))
                break
    return calls


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then restore
    each library's previous count.

    A multi-threaded GEMM splits its sums by thread, so the fits' last bits
    would follow the CPU count. Logs ``event=blas`` with ``threads=unpinned``
    when no thread setter is found, and then changes nothing.
    """
    calls = blas_thread_calls()
    previous = [get() for get, _ in calls]
    if not calls:
        log("blas", threads="unpinned")
    else:
        log("blas", threads=1, previous=",".join(map(str, previous)))
    try:
        for _, set_threads in calls:
            set_threads(1)
        yield
    finally:
        for (_, set_threads), n in zip(calls, previous):
            set_threads(n)


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
            handler = {
                "extract": cmd_extract,
                "train": cmd_train,
                "evaluate": cmd_evaluate,
                "importance": cmd_importance,
                "report": cmd_report,
            }[args.command]
            fits = handler in (cmd_train, cmd_evaluate)
            with one_blas_thread() if fits else contextlib.nullcontext():
                handler(_load_config(args))
    except (ValueError, TypeError, KeyError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
