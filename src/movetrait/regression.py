"""Trait regressors: principal component regression and Bayesian ridge.

Both map one feature matrix to one scalar trait, and both are the same
linear predictor ``x @ w + b``. With the centered design factored as
``u @ diag(s) @ vh``, each weight vector is a filter on that SVD,
``w = vh.T @ (phi(s) * (u.T @ (y - y_mean)))``, and the training means
fold into the intercept, ``b = y_mean - x_mean @ w``:

- PCR keeps the top k singular values, ``phi(s) = 1/s``, which is least
  squares on the top-k principal scores;
- Bayesian ridge uses ``phi(s) = s / (s**2 + lambda/alpha)``, where the
  noise precision alpha and weight-prior precision lambda are estimated by
  iterative evidence maximization; predictions are its posterior mean.

Both fits return a ``LinearModel``, the one model type that prediction,
model files and importance read; its ``kind`` only records which fit made
it. ``fit_bayes_ridge`` wraps its model in an ``Evidence`` that also
carries the evidence fit's alpha, lambda, effective degrees of freedom
gamma, convergence flag and iteration count.

The SVD does not depend on the target. ``centered_svd`` checks a design
matrix and factors it; every fit takes that factor, so one SVD serves every
trait and both model kinds.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .mocap import format_g17

TRAIT_NAMES = ("O", "C", "E", "A", "N", "EQ", "SQ")

MODEL_KINDS = ("pcr", "bayes_ridge")

# PCR component counts that worked best for each input kind; overridable.
PCR_DEFAULT_COMPONENTS = {"position": 243, "velocity": 137}

# Clamp range for evidence-maximization hyperparameters; guards degenerate
# inputs (constant targets, exactly noiseless fits) without affecting
# well-posed problems.
_HYPER_MIN = 1e-12
_HYPER_MAX = 1e12


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (samples x features)")
    return X


@dataclass(frozen=True)
class CenteredSvd:
    """Thin SVD of a centered design: ``X - mean = u @ diag(s) @ vh``.

    Built by ``centered_svd``, which rejects fewer than 2 rows and
    non-finite values before factoring.
    """

    mean: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[0], self.vh.shape[1]


def centered_svd(X) -> CenteredSvd:
    """Column means and the thin SVD of the centered block, checked first."""
    X = _as_matrix(X)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not np.isfinite(X).all():
        raise ValueError("non-finite values in training data")
    mean = X.mean(axis=0)
    centered = X - mean
    # A fold has far fewer rows than its 1770 features, and LAPACK factors
    # the tall transpose faster: centered.T = ut @ diag(s) @ vt, so
    # centered = vt.T @ diag(s) @ ut.T.
    ut, s, vt = np.linalg.svd(centered.T, full_matrices=False)
    return CenteredSvd(mean=mean, u=vt.T, s=s, vh=ut.T)


def _check_k(n: int, d: int, k: int) -> None:
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k out of range: {k} not in [1, {min(n - 1, d)}]")


@dataclass(frozen=True)
class PcaBasis:
    """Centered orthonormal row basis with non-increasing explained variance."""

    mean: np.ndarray
    components: np.ndarray          # k x d, rows orthonormal
    explained_variance: np.ndarray  # length k

    def project(self, X: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(X) - self.mean) @ self.components.T


@dataclass(frozen=True)
class LinearModel:
    """``x @ weights + intercept`` on the d features, the training means
    folded into the intercept; ``kind`` names its fit."""

    kind: str            # one of MODEL_KINDS
    weights: np.ndarray  # length d
    intercept: float

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Evidence:
    """A Bayesian-ridge model with its evidence fit: the noise precision
    alpha, the weight-prior precision lambda, the effective degrees of
    freedom gamma, and whether the loop converged within its iterations."""

    model: LinearModel
    alpha: float
    lambda_: float
    gamma: float
    converged: bool
    iterations: int

    @property
    def clamped(self) -> bool:
        """Whether alpha or lambda ended on a clamp bound, so the evidence
        fit did not estimate it."""
        return self.alpha in (_HYPER_MIN, _HYPER_MAX) or self.lambda_ in (_HYPER_MIN, _HYPER_MAX)


def fit_pca(factor: CenteredSvd, k: int) -> PcaBasis:
    """Centered SVD basis of the top-k principal directions of a factor.

    Components are ordered by non-increasing singular value; each row is
    sign-fixed so its largest-magnitude entry is positive.
    """
    _check_k(*factor.shape, k)
    components = factor.vh[:k].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaBasis(
        mean=factor.mean,
        components=components,
        explained_variance=factor.s[:k] ** 2 / factor.shape[0],
    )


def fit_pcr(factor: CenteredSvd, y: np.ndarray, k: int) -> LinearModel:
    """Least squares with intercept on the top-k principal scores of a factor.

    The scores are ``u[:, :k] * s[:k]``, so the weights on the d features
    are ``vh[:k].T @ (u[:, :k].T @ (y - y_mean) / s[:k])`` and the
    intercept is ``y_mean - mean @ weights``.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != factor.shape[0]:
        raise ValueError("y length must match the number of rows")
    _check_k(*factor.shape, k)
    s = factor.s[:k]
    if s[-1] <= np.finfo(float).eps * max(factor.shape) * s[0]:
        raise ValueError("degenerate principal scores: a selected component has zero variance")
    y_mean = float(y.mean())
    weights = factor.vh[:k].T @ (factor.u[:, :k].T @ (y - y_mean) / s)
    return LinearModel("pcr", weights, float(y_mean - factor.mean @ weights))


def fit_bayes_ridge(factor: CenteredSvd, y: np.ndarray, tol: float = 1e-3,
                    max_iter: int = 300) -> Evidence:
    """Evidence-maximization fit of the Bayesian linear model.

    Alternates the posterior given (alpha, lambda),

        Sigma = (alpha X^T X + lambda I)^-1,  beta = alpha Sigma X^T y,

    with hyperparameter updates through the effective degrees of freedom
    gamma = sum_i e_i / (e_i + lambda/alpha) over the eigenvalues e_i of
    X^T X: lambda <- gamma / ||beta||^2 and alpha <- (n - gamma) / rss.
    The loop starts from alpha = 1/var(y), clamped, and lambda = 1, and stops
    when max |delta beta| < tol, or reports converged=False after
    max_iter. ``factor`` is the ``centered_svd`` of the design; the target is
    centered here, and the model's intercept folds both means back in; gamma
    is reported at the final (alpha, lambda).

    The loop runs in the r coordinates of ``vh`` and forms the d-dim beta
    only for a step whose coordinate change is small enough that the test
    could pass; every other step provably fails it and skips the product.
    A tested step compares the same two products as a loop that forms beta
    on every step, so the result is bit-identical to that loop's. A
    non-finite coordinate or beta raises FloatingPointError.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = factor.shape[0]
    if y.shape[0] != n:
        raise ValueError("y length must match the number of rows")
    if not np.isfinite(y).all():
        raise ValueError("non-finite values in training data")
    s, vh = factor.s, factor.vh

    y_mean = float(y.mean())
    yc = y - y_mean
    eig = s**2
    uty = factor.u.T @ yc
    suty = s * uty
    # rss = ||uty - s * coords||^2 plus the part of yc outside the span of u
    rss_outside = float(yc @ yc - uty @ uty)

    var_y = float(yc @ yc) / n
    alpha = min(max(1.0 / max(var_y, _HYPER_MIN), _HYPER_MIN), _HYPER_MAX)
    lam = 1.0

    # A step whose coordinates move by |step|_2 >= 2 tol sqrt(d) cannot pass
    # the test: the rows of vh are orthonormal, so max|vh.T @ step| >=
    # |step|_2 / sqrt(d) >= 2 tol. Such a step skips the d-dim product. With
    # r coordinates, each product rounds by at most r eps / 2 |coords|_2 <=
    # r**1.5 eps / 2 max|coords|, so the two round by at most tol / 4 while
    # no coordinate exceeds tol / (4 r**1.5 eps), and the skipped test would
    # fail as computed too; past that, every step is tested.
    r = len(s)
    skip_from = 4.0 * tol * tol * vh.shape[1]
    exact_to = tol / (4.0 * r**1.5 * np.finfo(float).eps)

    # posterior mean in the coordinates of vh, at the current lambda/alpha
    denom = eig + lam / alpha
    coords = suty / denom
    beta = None   # vh.T @ coords, once a test has formed it
    converged = False
    iterations = 1
    for it in range(2, max_iter + 1):
        gamma = (eig / denom).sum()
        rss = ((uty - s * coords) ** 2).sum() + rss_outside
        bnorm = coords @ coords
        if bnorm > 0:
            lam = float(min(max(gamma / bnorm, _HYPER_MIN), _HYPER_MAX))
        if rss > 0:
            alpha = float(min(max((n - gamma) / rss, _HYPER_MIN), _HYPER_MAX))
        denom = eig + lam / alpha
        new_coords = suty / denom
        if not np.isfinite(new_coords).all():
            raise FloatingPointError("non-finite intermediate in evidence maximization")
        iterations = it
        if max(np.abs(coords).max(), np.abs(new_coords).max()) <= exact_to:
            step = new_coords - coords
            if step @ step >= skip_from:
                coords, beta = new_coords, None
                continue
        if beta is None:
            beta = vh.T @ coords
        new_beta = vh.T @ new_coords
        if not np.isfinite(new_beta).all():
            raise FloatingPointError("non-finite intermediate in evidence maximization")
        coords = new_coords
        if np.abs(new_beta - beta).max() < tol:
            beta = new_beta
            converged = True
            break
        beta = new_beta
    if beta is None:
        beta = vh.T @ coords

    return Evidence(
        model=LinearModel("bayes_ridge", beta, float(y_mean - factor.mean @ beta)),
        alpha=alpha,
        lambda_=lam,
        gamma=float((eig / denom).sum()),
        converged=converged,
        iterations=iterations,
    )


def predict_means(model: LinearModel, X) -> np.ndarray:
    """Vectorized prediction means for a batch of rows."""
    X = _as_matrix(X)
    if not isinstance(model, LinearModel):
        raise TypeError(f"unknown model type {type(model).__name__}")
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    return X @ model.weights + model.intercept


class DatasetMode(str, Enum):
    """Whether each take is a sample or takes are averaged per participant."""

    PER_STIMULUS = "per_stimulus"
    PARTICIPANT_MEAN = "participant_mean"


def build_dataset(
    values: np.ndarray,
    participants: Sequence[str],
    trait_table: dict,
    traits: Sequence[str],
    mode: DatasetMode | str = DatasetMode.PER_STIMULUS,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Pair feature rows, the i-th taken by ``participants[i]``, with the
    targets of the named traits.

    Returns ``(X, Y, participants)``: the design, an n x len(traits) target
    matrix whose columns follow ``traits``, and each row's participant.
    PER_STIMULUS keeps one sample per take (the participant's target is
    repeated); PARTICIPANT_MEAN averages each participant's feature rows into
    a single sample. Raises if any participant lacks a target.
    """
    mode = DatasetMode(mode)
    traits = tuple(traits)
    pids = list(participants)
    if len(pids) != len(values):
        raise ValueError(f"{len(pids)} participants for {len(values)} feature rows")
    for pid in pids:
        for trait in traits:
            if pid not in trait_table or trait not in trait_table[pid]:
                raise ValueError(f"no '{trait}' target for participant '{pid}'")

    def targets(order: list[str]) -> np.ndarray:
        return np.array([[trait_table[pid][t] for t in traits] for pid in order], dtype=float)

    if mode is DatasetMode.PER_STIMULUS:
        return values.copy(), targets(pids), tuple(pids)

    order = list(dict.fromkeys(pids))  # first-appearance order
    X = np.stack([
        values[[i for i, p in enumerate(pids) if p == pid]].mean(axis=0)
        for pid in order
    ])
    return X, targets(order), tuple(order)


def load_trait_table(path: str | Path, *, raw: bytes | None = None) -> dict:
    """Read a trait CSV (participant_id plus one column per trait).

    ``raw`` is the file's bytes when the caller has already read them (to
    hash them); otherwise the file is read once here. Bytes that are not
    UTF-8, or that start with a byte-order mark, are a ValueError naming
    the file. An empty cell leaves that trait missing for its participant;
    any other cell must be a finite number. A participant listed twice is a
    ValueError naming both lines.
    """
    if raw is None:
        raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: trait table is not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from exc
    if text.startswith("\ufeff"):
        raise ValueError(f"{path}: trait table starts with a UTF-8 byte-order mark; "
                         f"save it as CSV without one")
    table: dict[str, dict[str, float]] = {}
    first_line: dict[str, int] = {}
    # newline="" splits lines as csv expects of a file opened that way
    with io.StringIO(text, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "participant_id" not in reader.fieldnames:
            raise ValueError(f"{path}: trait table needs a participant_id column")
        for row in reader:
            pid = row["participant_id"]
            where = f"{path}:{reader.line_num}: participant {pid!r}"
            if None in row:
                raise ValueError(f"{where}: more cells than header columns")
            if pid in first_line:
                raise ValueError(f"{where} is already on line {first_line[pid]}")
            first_line[pid] = reader.line_num
            values = {}
            for column, cell in row.items():
                if column == "participant_id" or not (cell or "").strip():
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"{where}, column {column!r}: {cell!r} is not a finite number")
                values[column] = value
            table[pid] = values
    return table


def save_model(model: LinearModel, path: str | Path, provenance: dict | None = None) -> None:
    """Write a model file: a JSON object with the keys ``intercept``,
    ``kind``, ``provenance`` (when given) and ``weights``, sorted.

    The first three are written by ``json.dumps(indent=2)``, one provenance
    key per line. ``weights`` takes one line, written by ``format_g17``
    with commas, except that ``-0`` (which JSON reads as the integer 0) is
    written ``-0.0``. Seventeen significant digits name one binary64 value,
    so every value reloads bit for bit. A weight or intercept that is not
    finite, which JSON cannot hold, is a ValueError naming the file, and
    nothing is written.
    """
    if not isinstance(model, LinearModel):
        raise TypeError(f"unknown model type {type(model).__name__}")
    path = Path(path)
    for name in ("weights", "intercept"):
        if not np.isfinite(getattr(model, name)).all():
            raise ValueError(f"{path}: the {model.kind} model's {name} is not all finite")
    doc = {"intercept": model.intercept, "kind": model.kind}
    if provenance is not None:
        doc["provenance"] = provenance
    head = json.dumps(doc, indent=2, sort_keys=True)[:-2].encode()   # without its "\n}"
    weights = np.asarray(model.weights, dtype=float)
    row = format_g17(weights[None, :], ",")[:-1]
    if (np.signbit(weights) & (weights == 0)).any():   # rare; the search costs more than the format
        row = re.sub(rb"(?<![^,])-0(?![^,])", b"-0.0", row)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(head + b',\n  "weights": [' + row + b"]\n}\n")


def read_json_object(path: str | Path, what: str, *, raw: bytes | None = None) -> dict:
    """The JSON object in a file (or in its bytes ``raw``); bytes that are not
    a JSON object are a ValueError naming the file and ``what`` it holds."""
    if raw is None:
        raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSON syntax or UTF-8 decoding
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} holds a {type(doc).__name__}, not a JSON object")
    return doc


def load_model(path: str | Path, *, raw: bytes | None = None) -> LinearModel:
    """Read a model file; other entries are ignored.

    ``raw`` is the file's bytes when the caller has already read them (to
    hash them); otherwise the file is read once here. A file that is not a
    JSON object, lacks an entry, or holds the ``x_mean`` or ``basis`` of a
    former layout (whose intercept or weights mean something else) is a
    ValueError naming the file.
    """
    doc = read_json_object(path, "model file", raw=raw)
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    former = sorted(doc.keys() & {"x_mean", "basis"})
    if former:
        raise ValueError(f"{path}: a model file of a former layout (it holds {former[0]!r}); "
                         f"run train again")
    try:
        return LinearModel(
            kind=kind,
            weights=np.asarray(doc["weights"], dtype=float),
            intercept=float(doc["intercept"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: {kind} model file has no {exc.args[0]!r} entry") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
