"""Correctness checks on one pipeline run's outputs, coded apart from movetrait.

Every check reads the files the CLI wrote with plain parsers and compares
them with a recomputation from the method's definition (the joint recipe
table, the kernel formula, the weight-to-joint fold) or with a property
the method must have. Nothing here imports the program, so a fault in a
shared helper cannot make a check agree with itself.

Each check raises CheckError with a message naming the file at fault.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

FEATURE_DIM = 1770
SIGMA = 12.0
KERNEL_TOL = 1e-12
IMPORTANCE_TOL = 1e-12
R2_FLOOR = 0.7

# joint -> source marker indices (marker-major take columns); a joint
# averages its sources. This is the paper's 20-joint recipe.
JOINT_RECIPES = (
    (7, 8), (7,), (15,), (17,), (19,), (8,), (16,), (18,), (20,),
    (3, 4, 7, 8), (3, 4), (0, 1, 2), (3,), (9,), (11,), (13,),
    (4,), (10,), (12,), (14,),
)
JOINT_LABELS = "ABCDEFGHIJKLMNOPQRST"
# 12 named groups; left/right pairs are averaged
GROUPS = (
    ("Root", "A"), ("Hip", "BF"), ("Knee", "CG"), ("Ankle", "DH"),
    ("Toe", "EI"), ("Torso", "J"), ("Neck", "K"), ("Head", "L"),
    ("Shoulder", "MQ"), ("Elbow", "NR"), ("Wrist", "OS"), ("Finger", "PT"),
)


class CheckError(AssertionError):
    """An output of the pipeline is wrong."""


def _fail(msg: str) -> None:
    raise CheckError(msg)


def read_csv_matrix(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        return [[float(v) for v in line.split(",")] for line in fh if line.strip()]


def check_feature_matrix(path: Path, n_takes: int) -> None:
    """One row per take, 1770 columns, every value in (0, 1]."""
    rows = read_csv_matrix(path)
    if len(rows) != n_takes:
        _fail(f"{path}: {len(rows)} rows for {n_takes} takes")
    for r, row in enumerate(rows):
        if len(row) != FEATURE_DIM:
            _fail(f"{path}: row {r} has {len(row)} columns, expected {FEATURE_DIM}")
        for c, v in enumerate(row):
            if not 0.0 < v <= 1.0:
                _fail(f"{path}: row {r} column {c} value {v!r} outside (0, 1]")


def read_take(path: Path) -> list[list[float]]:
    """Plain TSV read: an optional #MARKERS header, then 63 values a line."""
    frames = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            frames.append([float(v) for v in line.split("\t")])
    return frames


def reference_position_features(take_path: Path, sigma: float = SIGMA) -> np.ndarray:
    """Joint recipe table, then exp(-|xi - xj|^2 / (2 sigma^2 T^2)) per pair.

    Pairs follow the strict lower triangle row by row: (1,0), (2,0), (2,1), ...
    """
    markers = np.array(read_take(take_path))
    t = markers.shape[0]
    cols = []
    for sources in JOINT_RECIPES:
        for axis in range(3):
            series = [markers[:, 3 * m + axis] for m in sources]
            cols.append(series[0] if len(series) == 1 else np.mean(series, axis=0))
    denom = 2.0 * sigma * sigma * t * t
    out = []
    for i in range(60):
        for j in range(i):
            d = cols[i] - cols[j]
            out.append(math.exp(-float(np.dot(d, d)) / denom))
    return np.array(out)


def check_position_features(features_csv: Path, takes_dir: Path, sample: list[int]) -> None:
    """Rows in ``sample`` agree with features recomputed from their TSV."""
    rows = read_csv_matrix(features_csv)
    meta = json.loads(Path(str(features_csv) + ".meta.json").read_text())["rows"]
    for r in sample:
        take = takes_dir / f"{meta[r]['participant_id']}_{meta[r]['stimulus_id']}.tsv"
        expected = reference_position_features(take)
        err = float(np.max(np.abs(np.array(rows[r]) - expected)))
        if not err <= KERNEL_TOL:
            _fail(f"{features_csv}: row {r} ({take.name}) is {err:.3g} from the "
                  f"recomputed kernel (tolerance {KERNEL_TOL})")


def reference_importance(weights: list[float]) -> list[float]:
    """Fold |w| onto both joints of each cell, min-max, reduce to 12 groups."""
    raw = [0.0] * 20
    k = 0
    for i in range(60):
        for j in range(i):
            raw[i // 3] += abs(weights[k])
            raw[j // 3] += abs(weights[k])
            k += 1
    lo, hi = min(raw), max(raw)
    norm = [0.0] * 20 if hi == lo else [(v - lo) / (hi - lo) for v in raw]
    by_label = dict(zip(JOINT_LABELS, norm))
    return [sum(by_label[m] for m in members) / len(members) for _, members in GROUPS]


def model_weights(doc: dict) -> list[float]:
    """A model's weights on the 1770 features (PCR back-projects them)."""
    if doc["kind"] == "pcr":
        comps = np.array(doc["basis"]["components"])
        return list(comps.T @ np.array(doc["weights"]))
    return doc["weights"]


def check_importance(models_dir: Path, importance_dir: Path, traits: list[str]) -> None:
    for trait in traits:
        doc = json.loads((models_dir / f"model_{trait}.json").read_text())
        expected = reference_importance(model_weights(doc))
        path = importance_dir / f"importance_{trait}.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            header, values = list(csv.reader(fh))
        if header != [g for g, _ in GROUPS]:
            _fail(f"{path}: group header {header}")
        for g, (got, want) in enumerate(zip(map(float, values), expected)):
            if not abs(got - want) <= IMPORTANCE_TOL:
                _fail(f"{path}: {header[g]} is {got!r}, brute-force fold gives {want!r}")


def read_scores(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_scores(path: Path, cells: int) -> None:
    """Every expected cell is present and every number in it is finite."""
    rows = read_scores(path)
    if len(rows) != cells:
        _fail(f"{path}: {len(rows)} score cells, expected {cells}")
    for row in rows:
        for key, value in row.items():
            if key in ("input", "model", "trait"):
                continue
            if not math.isfinite(float(value)):
                _fail(f"{path}: {row['input']}/{row['model']}/{row['trait']} "
                      f"{key} is {value}")


def check_leakage(evaluate_log: str, inputs: list[str]) -> None:
    """The leakage audit ran once per input kind and found no shared participant."""
    audits = {}
    for line in evaluate_log.splitlines():
        kv = dict(p.split("=", 1) for p in line.split() if "=" in p)
        if kv.get("event") == "leakage_audit":
            audits[kv["input"]] = kv["shared_participants"]
    if sorted(audits) != sorted(inputs):
        _fail(f"leakage audit covered {sorted(audits)}, expected {sorted(inputs)}")
    for kind, shared in audits.items():
        if shared != "0":
            _fail(f"leakage audit: {shared} participants shared across folds for {kind}")


def headline_r2(path: Path) -> float:
    """Lowest per-trait mean CV R2 of Position x Bayesian ridge."""
    vals = [float(r["mean_r2"]) for r in read_scores(path)
            if r["input"] == "position" and r["model"] == "bayes_ridge"]
    if not vals:
        _fail(f"{path}: no position x bayes_ridge cell")
    return min(vals)


def check_r2_floor(r2_min: float) -> None:
    if not r2_min >= R2_FLOOR:
        _fail(f"planted-signal R2 {r2_min:.4f} below the floor {R2_FLOOR}")


def output_digest(out_dir: Path) -> str:
    """sha256 over the features, models and scores, in file-name order."""
    h = hashlib.sha256()
    files = sorted(
        list((out_dir / "extract").glob("features_*"))
        + list((out_dir / "train").glob("model_*.json"))
        + list((out_dir / "evaluate").glob("scores.*"))
    )
    for p in files:
        h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()
