"""Correntropy covariance features over joint coordinate time series.

Each pair of coordinate columns (x_i, x_j) of a take is compared with a
Gaussian kernel on their length-normalized distance,

    K(x_i, x_j) = exp(-||x_i - x_j||^2 / (2 * sigma^2 * T^2)),

giving a symmetric 60x60 matrix with unit diagonal. Its strict lower
triangle, read row by row, is the 1770-dim feature vector of the take.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .mocap import _CSV_BLOCK_LINES, format_g17, read_exact_csv, scan_table

SIGMA_DEFAULT = 12.0
ROW_IDS = ("participant_id", "stimulus_id")   # what names a take, and so a feature row


def pairwise_correntropy(data: np.ndarray, sigma: float = SIGMA_DEFAULT) -> np.ndarray:
    """Correntropy between all column pairs of a frames x d matrix.

    With column means m, centered data F = X - m and G = F^T F, every
    squared distance is ||x_i - x_j||^2 = T (m_i - m_j)^2 + g_ii + g_jj
    - 2 g_ij (the cross term vanishes because each column of F sums to
    zero), so one Gram product serves all pairs. Centering each column on
    its own mean keeps g small next to the offsets between columns; a
    single shared shift loses that and misses the scalar formula by more
    than 1e-12 on short takes. Returns a d x d matrix, exactly symmetric
    with an exact unit diagonal.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("need a frames x columns matrix with at least one frame")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    t = data.shape[0]
    mean = data.mean(axis=0)
    centered = data - mean
    gram = centered.T @ centered
    sq_norm = np.diag(gram)
    offset = mean[:, None] - mean[None, :]
    sq = t * offset * offset + sq_norm[:, None] + sq_norm[None, :] - 2.0 * gram
    out = np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma * sigma * t * t))
    out = (out + out.T) / 2.0
    np.fill_diagonal(out, 1.0)
    return out


def lower_triangle_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The declared strict-lower-triangle walk: rows i=1..dim-1, cols j<i.

    Feature index k maps to (rows[k], cols[k]). Joint-importance relies on
    inverting exactly this order, so it is defined once here.
    """
    return np.tril_indices(dim, k=-1)


def vectorize_lower(matrix: np.ndarray) -> np.ndarray:
    """Flatten the strict lower triangle in the declared walk order.

    A d x d input yields d*(d-1)/2 values; the standard 60x60 matrix gives
    the 1770-dim feature vector.
    """
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = lower_triangle_indices(matrix.shape[0])
    return matrix[rows, cols]


def extract_features(joints: np.ndarray, sigma: float = SIGMA_DEFAULT) -> np.ndarray:
    """Frames x 60 joint trajectories -> correntropy matrix -> lower-triangle
    feature vector."""
    return vectorize_lower(pairwise_correntropy(joints, sigma))


def gaussian_stats(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and population standard deviation (divide by n)."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise ValueError("normalization needs at least 2 rows")
    return values.mean(axis=0), values.std(axis=0)


def apply_gaussian_stats(values: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Standardize columns by given stats; zero-variance columns map to zero."""
    values = np.asarray(values, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    safe = np.where(sigma > 0, sigma, 1.0)
    out = (values - mu) / safe
    out[:, sigma <= 0] = 0.0
    return out


def rows_path(csv_path: str | Path) -> Path:
    """The ``.meta.json`` sidecar that holds a feature CSV's row provenance."""
    csv_path = Path(csv_path)
    return csv_path.with_suffix(csv_path.suffix + ".meta.json")


def save_feature_matrix(values: np.ndarray, csv_path: str | Path,
                        rows: list[tuple[str, str]]) -> None:
    """Write rows as CSV plus a ``.meta.json`` sidecar with each row's
    (participant_id, stimulus_id).

    Every value is written as ``%.17g``, with ``,`` between cells and ``\\n``
    after each row, by ``mocap.format_g17``. Each ``_CSV_BLOCK_LINES`` rows
    are formatted and written before the next are, so no more than one
    block's text is held at a time.
    """
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    values = np.asarray(values, dtype=float)
    with open(csv_path, "wb") as out:
        for first in range(0, len(values), _CSV_BLOCK_LINES):
            out.write(format_g17(values[first:first + _CSV_BLOCK_LINES], ","))
    meta = {"rows": [dict(zip(ROW_IDS, pair)) for pair in rows]}
    rows_path(csv_path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_feature_rows(csv_path: str | Path, *,
                      raw: bytes | None = None) -> tuple[tuple[str, str], ...]:
    """Each row's (participant_id, stimulus_id) from a feature CSV's
    ``.meta.json`` sidecar; the CSV is not read.

    ``raw`` is the sidecar's bytes when the caller has already read them (to
    hash them); otherwise the sidecar is read once here. Other entries of a
    row, such as older sidecars' ``kind``, are ignored. A sidecar that does
    not parse or lacks an entry is a ValueError naming it.
    """
    sidecar = rows_path(csv_path)
    if raw is None:
        raw = sidecar.read_bytes()
    try:
        return tuple(tuple(r[key] for key in ROW_IDS)
                     for r in json.loads(raw.decode("utf-8"))["rows"])
    except KeyError as exc:
        raise ValueError(f"{sidecar}: no {exc.args[0]!r} entry") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{sidecar}: {exc}") from exc


def load_feature_matrix(csv_path: str | Path, rows: tuple[tuple[str, str], ...] | None = None,
                        *, raw: bytes | None = None) -> np.ndarray:
    """Parse a feature CSV; ``rows`` are its ``load_feature_rows``, read here if not given.

    ``raw`` is the CSV's bytes when the caller has already read them (to
    hash them); otherwise the file is read once here. The exact vectorized
    reader (``mocap.read_exact_csv``) parses a file of equal-width rows of
    finite plain decimals with ``\\n`` line ends, as ``save_feature_matrix``
    writes it. Everything it declines goes to ``mocap.scan_table``, which
    gives the same values bit for bit or raises a ValueError naming
    ``file:line``. A row count that disagrees with ``rows`` is a ValueError
    naming the CSV.
    """
    if rows is None:
        rows = load_feature_rows(csv_path)
    if raw is None:
        raw = Path(csv_path).read_bytes()
    values = read_exact_csv(raw)
    if values is None:
        values = scan_table(csv_path, raw, ",", lambda lineno, line: line.count(",") + 1)
    if len(rows) != len(values):
        raise ValueError(
            f"{csv_path}: row metadata length {len(rows)} != row count {len(values)}")
    return values
