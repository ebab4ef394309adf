"""Test oracles that no pipeline stage calls: they check the package's
outputs from the other direction."""
import math

import numpy as np

from movetrait.features import lower_triangle_indices


def unvectorize_lower(vec: np.ndarray, dim: int) -> np.ndarray:
    """Rebuild the symmetric matrix (unit diagonal) from its triangle vector."""
    vec = np.asarray(vec, dtype=float)
    expected = dim * (dim - 1) // 2
    if vec.shape != (expected,):
        raise ValueError(f"expected {expected} entries for dim {dim}, got {vec.shape}")
    out = np.eye(dim, dtype=float)
    rows, cols = lower_triangle_indices(dim)
    out[rows, cols] = vec
    out[cols, rows] = vec
    return out


def filter_magnitude_squared(
    b: np.ndarray, a: np.ndarray, freq_hz: float, frame_rate: float
) -> float:
    """Squared magnitude |H(e^{jw})|^2 of the filter at one frequency."""
    z = np.exp(-2j * math.pi * freq_hz / frame_rate)
    h = np.polyval(b[::-1], z) / np.polyval(a[::-1], z)
    return float(abs(h) ** 2)
