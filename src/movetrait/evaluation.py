"""Metrics and the cross-validation harness producing per-trait score tables.

RMSE and R^2 follow the usual definitions; Spearman is the Pearson
correlation of average-ranked values. Cross-validation refits any
normalization statistics on the training rows of each fold so no
validation information leaks into the transform, and factors each fold's
training block once for every trait and model.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import apply_gaussian_stats, gaussian_stats
from .regression import (
    MODEL_KINDS,
    CenteredSvd,
    LinearModel,
    centered_svd,
    fit_bayes_ridge,
    fit_pcr,
    predict_means,
)

INPUT_KINDS = ("position", "position_n", "velocity", "velocity_n")
INPUT_KIND_LABELS = {
    "position": "Position",
    "position_n": "Position(N)",
    "velocity": "Velocity",
    "velocity_n": "Velocity(N)",
}
MODEL_LABELS = {"pcr": "PCR", "bayes_ridge": "Bayesian Ridge"}

# Scores reported for the original study's dataset (private; not
# reproducible here). Rendered beside computed scores for comparison only
# and never asserted anywhere. Keyed trait -> (input kind, model) ->
# (rmse, r2); the personality traits were only reported for the Bayesian
# model.
REFERENCE_RESULTS = {
    "EQ": {
        ("position", "pcr"): (3.071, 0.708),
        ("position", "bayes_ridge"): (2.722, 0.771),
        ("position_n", "pcr"): (3.201, 0.684),
        ("position_n", "bayes_ridge"): (2.733, 0.765),
        ("velocity", "pcr"): (4.938, 0.249),
        ("velocity", "bayes_ridge"): (4.343, 0.423),
        ("velocity_n", "pcr"): (4.583, 0.353),
        ("velocity_n", "bayes_ridge"): (4.015, 0.503),
    },
    "SQ": {
        ("position", "pcr"): (2.398, 0.781),
        ("position", "bayes_ridge"): (2.161, 0.867),
        ("position_n", "pcr"): (2.363, 0.786),
        ("position_n", "bayes_ridge"): (2.502, 0.838),
        ("velocity", "pcr"): (4.448, 0.252),
        ("velocity", "bayes_ridge"): (3.832, 0.469),
        ("velocity_n", "pcr"): (4.211, 0.329),
        ("velocity_n", "bayes_ridge"): (3.714, 0.552),
    },
    "O": {
        ("position", "bayes_ridge"): (0.197, 0.776),
        ("position_n", "bayes_ridge"): (0.227, 0.740),
        ("velocity", "bayes_ridge"): (0.332, 0.464),
        ("velocity_n", "bayes_ridge"): (0.304, 0.527),
    },
    "C": {
        ("position", "bayes_ridge"): (0.317, 0.760),
        ("position_n", "bayes_ridge"): (0.332, 0.690),
        ("velocity", "bayes_ridge"): (0.487, 0.415),
        ("velocity_n", "bayes_ridge"): (0.426, 0.543),
    },
    "E": {
        ("position", "bayes_ridge"): (0.384, 0.743),
        ("position_n", "bayes_ridge"): (0.414, 0.756),
        ("velocity", "bayes_ridge"): (0.556, 0.523),
        ("velocity_n", "bayes_ridge"): (0.501, 0.623),
    },
    "A": {
        ("position", "bayes_ridge"): (0.252, 0.776),
        ("position_n", "bayes_ridge"): (0.273, 0.716),
        ("velocity", "bayes_ridge"): (0.440, 0.335),
        ("velocity_n", "bayes_ridge"): (0.408, 0.442),
    },
    "N": {
        ("position", "bayes_ridge"): (0.384, 0.758),
        ("position_n", "bayes_ridge"): (0.390, 0.739),
        ("velocity", "bayes_ridge"): (0.557, 0.483),
        ("velocity_n", "bayes_ridge"): (0.461, 0.654),
    },
}

# Spearman correlations among the personality targets reported for the
# original dataset; comparison only.
TRAIT_CORRELATION_REFERENCE = {
    ("C", "O"): -0.093,
    ("E", "O"): -0.003,
    ("E", "C"): 0.128,
    ("A", "O"): 0.021,
    ("A", "C"): 0.341,
    ("A", "E"): 0.358,
    ("N", "O"): 0.217,
    ("N", "C"): -0.289,
    ("N", "E"): -0.225,
    ("N", "A"): -0.292,
}


def rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Root mean squared error, in target units."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise ValueError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    if y.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    d = y - y_hat
    return float(np.sqrt((d @ d) / y.size))


def r2(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination; 1 is perfect, may go negative."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise ValueError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    if y.size < 2:
        raise ValueError("r2 needs at least 2 samples")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0:
        raise ValueError("r2 undefined for zero-variance targets")
    sse = float(np.sum((y - y_hat) ** 2))
    return 1.0 - sse / sst


def _average_ranks(v: np.ndarray) -> np.ndarray:
    # ties get the average of the rank positions they span
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=float)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Rank correlation in [-1, 1]; ties receive average ranks."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.size < 3:
        raise ValueError("spearman needs at least 3 samples")
    ra = _average_ranks(a) - (a.size + 1) / 2.0
    rb = _average_ranks(b) - (b.size + 1) / 2.0
    na = float(ra @ ra)
    nb = float(rb @ rb)
    if na <= 0 or nb <= 0:
        raise ValueError("spearman undefined when one input has zero rank variance")
    return float((ra @ rb) / np.sqrt(na * nb))


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every sample to exactly one of n_folds folds."""

    n_folds: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=int)
        if a.min() < 0 or a.max() >= self.n_folds:
            raise ValueError("fold assignment out of range")
        object.__setattr__(self, "assignments", a)

    @property
    def smallest_train_size(self) -> int:
        """Rows left for training by the fold with the most validation rows."""
        counts = np.bincount(self.assignments, minlength=self.n_folds)
        return int(self.assignments.size - counts.max())


def make_fold_plan(
    n_samples: int,
    n_folds: int = 5,
    seed: int = 0,
    groups: tuple[str, ...] | None = None,
) -> FoldPlan:
    """Seeded uniform shuffle followed by round-robin fold assignment.

    With ``groups``, whole groups (participants) are shuffled and dealt to
    folds, so no group ever straddles a train/validation boundary.
    """
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(n_samples, dtype=int)
    if groups is None:
        if n_samples < n_folds:
            raise ValueError(f"{n_samples} samples cannot fill {n_folds} folds")
        perm = rng.permutation(n_samples)
        assignments[perm] = np.arange(n_samples) % n_folds
        return FoldPlan(n_folds, assignments)

    if len(groups) != n_samples:
        raise ValueError("groups length must equal n_samples")
    uniq = list(dict.fromkeys(groups))
    if len(uniq) < n_folds:
        raise ValueError(f"{len(uniq)} groups cannot fill {n_folds} folds")
    order = rng.permutation(len(uniq))
    fold_of_group = {uniq[g]: pos % n_folds for pos, g in enumerate(order)}
    for i, g in enumerate(groups):
        assignments[i] = fold_of_group[g]
    return FoldPlan(n_folds, assignments)


def leaked_groups(plan: FoldPlan, groups: tuple[str, ...]) -> int:
    """Number of groups whose samples are split across different folds."""
    seen: dict[str, int] = {}
    leaked = set()
    for g, f in zip(groups, plan.assignments):
        if g in seen and seen[g] != int(f):
            leaked.add(g)
        seen.setdefault(g, int(f))
    return len(leaked)


@dataclass(frozen=True)
class ModelSpec:
    """Which regressor to fit inside the harness."""

    kind: str  # "pcr" | "bayes_ridge"
    k: int | None = None
    tol: float = 1e-3
    max_iter: int = 300

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "pcr" and self.k is None:
            raise ValueError("PCR needs a component count k")

    def fit(self, factor: CenteredSvd, y: np.ndarray) -> tuple[LinearModel, dict]:
        """Fit on the ``centered_svd`` of the design.

        Returns the model and its fit diagnostics: none for PCR; converged,
        iterations, alpha, lambda, gamma and whether alpha or lambda ended
        on a clamp bound for Bayesian ridge.
        """
        if self.kind == "pcr":
            return fit_pcr(factor, y, self.k), {}
        fit = fit_bayes_ridge(factor, y, tol=self.tol, max_iter=self.max_iter)
        return fit.model, {
            "converged": fit.converged, "iterations": fit.iterations,
            "alpha": fit.alpha, "lambda": fit.lambda_, "gamma": fit.gamma,
            "clamped": fit.clamped,
        }


@dataclass(frozen=True)
class CvResult:
    """Fold, mean and pooled scores of one (model, trait) cell.

    The pooled scores are those of all out-of-fold predictions taken as one
    set; they can differ from the per-fold means. For Bayesian ridge,
    ``converged_folds`` and ``max_iterations`` summarize the evidence loop
    over the folds, and ``clamped_folds`` counts the folds whose final
    alpha or lambda sits on a clamp bound. For normalized inputs,
    ``out_of_range`` counts the validation cells outside their training
    column's [min, max], summed over the folds, and ``max_abs_z`` is the
    largest |z| of a validation cell. All five are diagnostics, not scores.
    """

    fold_rmse: tuple[float, ...]
    fold_r2: tuple[float, ...]
    mean_rmse: float
    mean_r2: float
    pooled_rmse: float
    pooled_r2: float
    converged_folds: int | None = None
    max_iterations: int | None = None
    clamped_folds: int | None = None
    out_of_range: int | None = None
    max_abs_z: float | None = None


def cross_validate(
    X: np.ndarray,
    Y: np.ndarray,
    specs: Sequence[ModelSpec],
    plan: FoldPlan,
    normalize: bool = False,
) -> list[list[CvResult]]:
    """Fit on out-of-fold rows, score on in-fold rows, for every fold.

    ``Y`` holds one target column per trait (a vector is one trait). Each
    fold's training rows are normalized (when ``normalize`` is set, with
    Gaussian statistics of those rows only, applied to both sides) and
    factored once; every spec and trait is fitted from that factor. The
    out-of-fold predictions of each cell are also scored as one set.
    Returns ``results[spec][trait]``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if plan.assignments.shape[0] != X.shape[0]:
        raise ValueError("fold plan does not cover the sample count")
    if Y.shape[0] != X.shape[0]:
        raise ValueError("Y needs one row per sample")
    cells = [(spec, y) for spec in specs for y in Y.T]
    # per cell, one (rmse, r2, converged, iterations, clamped) tuple per fold
    folds: list[list[tuple]] = [[] for _ in cells]
    all_pred = [np.empty_like(y) for _, y in cells]
    extrapolation = {"out_of_range": 0, "max_abs_z": 0.0} if normalize else {}
    for f in range(plan.n_folds):
        val = plan.assignments == f
        if val.sum() < 2:
            raise ValueError(f"fold {f} has fewer than 2 validation samples")
        train = ~val
        xtr, xva = X[train], X[val]
        if normalize:
            outside = (xva < xtr.min(axis=0)) | (xva > xtr.max(axis=0))
            extrapolation["out_of_range"] += int(np.count_nonzero(outside))
            mu, sd = gaussian_stats(xtr)
            xtr = apply_gaussian_stats(xtr, mu, sd)
            xva = apply_gaussian_stats(xva, mu, sd)
            extrapolation["max_abs_z"] = max(extrapolation["max_abs_z"],
                                             float(np.abs(xva).max()))
        factor = centered_svd(xtr)
        for c, (spec, y) in enumerate(cells):
            model, diagnostics = spec.fit(factor, y[train])
            pred = predict_means(model, xva)
            all_pred[c][val] = pred
            folds[c].append((rmse(y[val], pred), r2(y[val], pred),
                             diagnostics.get("converged"), diagnostics.get("iterations"),
                             diagnostics.get("clamped")))
    results = [
        _cv_result(folds[c], y, all_pred[c], **extrapolation)
        for c, (_, y) in enumerate(cells)
    ]
    n_traits = Y.shape[1]
    return [results[i:i + n_traits] for i in range(0, len(results), n_traits)]


def _cv_result(folds: list[tuple], y: np.ndarray, all_pred: np.ndarray,
               **extrapolation) -> CvResult:
    fold_rmse, fold_r2, converged, iterations, clamped = zip(*folds)
    diagnosed = None not in converged
    return CvResult(
        fold_rmse=fold_rmse,
        fold_r2=fold_r2,
        mean_rmse=float(np.mean(fold_rmse)),
        mean_r2=float(np.mean(fold_r2)),
        pooled_rmse=rmse(y, all_pred),
        pooled_r2=r2(y, all_pred),
        converged_folds=sum(converged) if diagnosed else None,
        max_iterations=max(iterations) if diagnosed else None,
        clamped_folds=sum(clamped) if diagnosed else None,
        **extrapolation,
    )


@dataclass(frozen=True)
class ScoreTable:
    """Cross-validated scores keyed by (input kind, model, trait).

    ``cells`` keeps insertion order, which is the row order of the CSV
    rendering.
    """

    cells: dict[tuple[str, str, str], CvResult]
    n_folds: int
    seed: int
    grouping: str

    @property
    def traits(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(trait for _, _, trait in self.cells))


def score_table_csv(table: ScoreTable) -> str:
    n = table.n_folds
    header = (
        ["input", "model", "trait", "mean_rmse", "mean_r2"]
        + [f"rmse_fold{i + 1}" for i in range(n)]
        + [f"r2_fold{i + 1}" for i in range(n)]
        + ["pooled_rmse", "pooled_r2"]
    )
    lines = [",".join(header)]
    for (input_kind, model, trait), res in table.cells.items():
        scores = (res.mean_rmse, res.mean_r2, *res.fold_rmse, *res.fold_r2,
                  res.pooled_rmse, res.pooled_r2)
        lines.append(",".join([input_kind, model, trait, *(f"{v:.17g}" for v in scores)]))
    return "\n".join(lines) + "\n"


def score_table_text(table: ScoreTable) -> str:
    """Readable per-trait blocks: input rows, model columns.

    Reference scores from the original (private) dataset are shown in
    parentheses next to each cell when available; they are context, not a
    target the run is checked against.
    """
    out: list[str] = []
    for trait in table.traits:
        out.append(f"=== Trait {trait} "
                   f"({table.n_folds}-fold CV, seed {table.seed}, grouping {table.grouping}) ===")
        ref_t = REFERENCE_RESULTS.get(trait, {})
        header = f"{'Input':<13}"
        models = [m for m in MODEL_KINDS
                  if any((mk, t) == (m, trait) for _, mk, t in table.cells)]
        for m in models:
            header += f"{MODEL_LABELS[m] + ' RMSE':>24}{MODEL_LABELS[m] + ' R2':>24}"
        out.append(header)
        for kind in INPUT_KINDS:
            if not any((ik, t) == (kind, trait) for ik, _, t in table.cells):
                continue
            line = f"{INPUT_KIND_LABELS[kind]:<13}"
            for m in models:
                res = table.cells.get((kind, m, trait))
                ref = ref_t.get((kind, m))
                if res is None:
                    line += f"{'-':>24}{'-':>24}"
                    continue
                rm = f"{res.mean_rmse:.3f}"
                r2v = f"{res.mean_r2:.3f}"
                if ref is not None:
                    rm += f" (ref {ref[0]:.3f})"
                    r2v += f" (ref {ref[1]:.3f})"
                line += f"{rm:>24}{r2v:>24}"
            out.append(line)
        out.append("")
    out.append("Reference values were reported for the original dataset, which is")
    out.append("private; they are shown for side-by-side comparison only.")
    return "\n".join(out) + "\n"


def write_score_table(table: ScoreTable, out_dir: str | Path) -> dict:
    """Emit ``scores.csv`` and ``scores.txt``; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"csv": out_dir / "scores.csv", "txt": out_dir / "scores.txt"}
    paths["csv"].write_text(score_table_csv(table))
    paths["txt"].write_text(score_table_text(table))
    return paths
