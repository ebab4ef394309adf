"""Test oracles that no pipeline stage calls: they check the package's
outputs from the other direction."""
import json
import math
from pathlib import Path

import numpy as np

from movetrait.features import SIGMA_DEFAULT, lower_triangle_indices
from movetrait.mocap import MARKER_LABELS
from movetrait.synth import iter_takes, sample_traits, write_trait_table


def correntropy(x: np.ndarray, y: np.ndarray, sigma: float = SIGMA_DEFAULT) -> float:
    """Gaussian-kernel similarity of two equal-length series, in (0, 1].

    The squared distance is normalized by the squared series length T so
    that takes of different durations remain comparable.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"series length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.size < 1:
        raise ValueError("series must have at least one sample")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    t = x.size
    d = x - y
    return float(np.exp(-(d @ d) / (2.0 * sigma * sigma * t * t)))


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


def write_dataset_serial(spec, out_dir) -> None:
    """``synth.write_dataset`` as one serial loop in this process: the byte
    oracle for the pooled writer."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traits = sample_traits(spec)
    header = "#MARKERS\t" + "\t".join(MARKER_LABELS)
    for take in iter_takes(spec, traits):
        stem = f"{take.participant_id}_{take.stimulus_id}"
        row_format = "\t".join(["%.17g"] * take.data.shape[1])
        rows = [header]
        rows.extend(row_format % tuple(frame) for frame in take.data.tolist())
        (out_dir / f"{stem}.tsv").write_text("\n".join(rows) + "\n")
        sidecar = {
            "frame_rate": take.frame_rate,
            "participant_id": take.participant_id,
            "stimulus_id": take.stimulus_id,
        }
        (out_dir / f"{stem}.json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
        )
    write_trait_table(traits, out_dir / "traits.csv")
    spec.to_json(out_dir / "synth_spec.json")
