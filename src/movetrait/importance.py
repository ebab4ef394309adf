"""Per-joint importance profiles derived from trained regression weights.

Every feature index addresses one pair of coordinate columns of the
correntropy matrix; walking the strict lower triangle, the absolute weight
of each feature is credited to the joints that own its two coordinates.
The resulting 20-dim profile is min-max normalized to [0, 1] and reduced
to 12 named groups by averaging left/right pairs.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .features import lower_triangle_indices
from .mocap import JOINT_LABELS

N_COORDS = 60
N_JOINTS = 20
FEATURE_DIM = N_COORDS * (N_COORDS - 1) // 2

GROUP_NAMES = (
    "Root", "Hip", "Knee", "Ankle", "Toe", "Torso",
    "Neck", "Head", "Shoulder", "Elbow", "Wrist", "Finger",
)

# group -> member joint labels; left/right pairs are averaged, the four
# single joints pass through
GROUP_MEMBERS = {
    "Root": ("A",),
    "Hip": ("B", "F"),
    "Knee": ("C", "G"),
    "Ankle": ("D", "H"),
    "Toe": ("E", "I"),
    "Torso": ("J",),
    "Neck": ("K",),
    "Head": ("L",),
    "Shoulder": ("M", "Q"),
    "Elbow": ("N", "R"),
    "Wrist": ("O", "S"),
    "Finger": ("P", "T"),
}


def joint_importance(weights: np.ndarray) -> np.ndarray:
    """Fold a 1770-dim weight vector into 20 per-joint accumulations.

    Feature k maps to matrix cell (i, j) through the declared triangle
    walk; |weights[k]| is added to joint i//3 and to joint j//3. Pairs of
    coordinates of the same joint therefore credit it twice.
    """
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape[0] != FEATURE_DIM:
        raise ValueError(f"expected {FEATURE_DIM} weights, got {weights.shape[0]}")
    rows, cols = lower_triangle_indices(N_COORDS)
    mag = np.abs(weights)
    out = np.zeros(N_JOINTS, dtype=float)
    np.add.at(out, rows // 3, mag)
    np.add.at(out, cols // 3, mag)
    return out


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Affine map onto [0, 1]; a constant input maps to all zeros."""
    values = np.asarray(values, dtype=float).ravel()
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def reduce_to_groups(values: np.ndarray) -> np.ndarray:
    """Average the 20 joint values into the 12 named groups."""
    values = np.asarray(values, dtype=float).ravel()
    if values.shape[0] != N_JOINTS:
        raise ValueError(f"expected {N_JOINTS} joint values, got {values.shape[0]}")
    idx = {label: i for i, label in enumerate(JOINT_LABELS)}
    return np.array([
        np.mean([values[idx[m]] for m in GROUP_MEMBERS[g]]) for g in GROUP_NAMES
    ])


def importance_from_model(model, trait: str) -> np.ndarray:
    """The 12 group values, over GROUP_NAMES, of a trained model's weights on
    the 1770 features: joint importance, min-max normalized, group-reduced."""
    w = model.weights
    if w.shape[0] != FEATURE_DIM:
        raise ValueError(
            f"model for '{trait}' has {w.shape[0]} feature weights, expected {FEATURE_DIM}"
        )
    return reduce_to_groups(minmax_normalize(joint_importance(w)))


def radar_svg(
    series: dict[str, np.ndarray],
    title: str = "",
    overlay: np.ndarray | None = None,
) -> str:
    """12-axis radar chart as a self-contained SVG string.

    One polyline per series over GROUP_NAMES axes (values expected in
    [0, 1]); ``overlay`` draws one extra dashed black line, labelled
    "trait mean". No external assets.
    """
    size = 520
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
    cx = cy = size / 2.0
    radius = size * 0.36
    n = len(GROUP_NAMES)

    def point(axis: int, value: float) -> tuple[float, float]:
        ang = -math.pi / 2.0 + 2.0 * math.pi * axis / n
        return (cx + radius * value * math.cos(ang), cy + radius * value * math.sin(ang))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{cx:.1f}" y="24" font-size="16" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    for ring in (0.25, 0.5, 0.75, 1.0):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (point(i, ring) for i in range(n)))
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="#cccccc" stroke-width="1"/>'
        )
    for i, name in enumerate(GROUP_NAMES):
        x, y = point(i, 1.0)
        parts.append(
            f'<line x1="{cx:.2f}" y1="{cy:.2f}" x2="{x:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        lx, ly = point(i, 1.16)
        parts.append(
            f'<text x="{lx:.1f}" y="{ly:.1f}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{name}</text>'
        )

    def polyline(values: np.ndarray, color: str, width: float, dash: str = "") -> str:
        closed = list(values) + [values[0]]
        pts = " ".join(
            f"{x:.2f},{y:.2f}"
            for x, y in (point(i % n, float(v)) for i, v in enumerate(closed))
        )
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{extra}/>'
        )

    for si, (label, values) in enumerate(series.items()):
        parts.append(polyline(np.asarray(values, dtype=float), palette[si % len(palette)], 2.0))
    if overlay is not None:
        parts.append(polyline(np.asarray(overlay, dtype=float), "#000000", 1.5, dash="6,3"))

    legend_y = size - 14.0 * (len(series) + (1 if overlay is not None else 0)) - 6
    for si, label in enumerate(series):
        color = palette[si % len(palette)]
        parts.append(
            f'<rect x="10" y="{legend_y + 14 * si:.1f}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="25" y="{legend_y + 14 * si + 9:.1f}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    if overlay is not None:
        y0 = legend_y + 14 * len(series)
        parts.append(
            f'<line x1="10" y1="{y0 + 5:.1f}" x2="20" y2="{y0 + 5:.1f}" '
            f'stroke="#000000" stroke-width="1.5" stroke-dasharray="6,3"/>'
        )
        parts.append(
            f'<text x="25" y="{y0 + 9:.1f}" font-size="12" '
            f'font-family="sans-serif">trait mean</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def importance_report(
    profiles: dict[str, np.ndarray],
    out_dir: str | Path,
) -> dict:
    """Write per-trait CSVs, the cross-trait summary, and radar SVGs.

    ``profiles`` maps each trait to its 12 group values over GROUP_NAMES, as
    ``importance_from_model`` gives them. Produces one group-value CSV and
    one radar per trait; when at least two personality-trait profiles are
    present, a combined CSV with the per-group mean and standard deviation
    across them plus per-trait radars carrying the mean overlay; when both
    EQ and SQ are present, a two-series radar.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    dims = {np.shape(p) for p in profiles.values()}
    if dims and dims != {(len(GROUP_NAMES),)}:
        raise ValueError("importance profiles disagree on group layout")

    for trait, prof in profiles.items():
        path = out_dir / f"importance_{trait}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(GROUP_NAMES)
            writer.writerow([f"{v:.17g}" for v in prof])
        written[f"csv_{trait}"] = path

    def radar(name: str, series: dict[str, np.ndarray], title: str, overlay=None) -> None:
        path = out_dir / f"radar_{name}.svg"
        path.write_text(radar_svg(series, title, overlay=overlay))
        written[f"svg_{name}"] = path

    personality = {t: profiles[t] for t in ("O", "C", "E", "A", "N") if t in profiles}
    if len(personality) >= 2:
        stack = np.stack(list(personality.values()))
        mean = stack.mean(axis=0)
        std = stack.std(axis=0)
        path = out_dir / "importance_personality_summary.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group"] + list(personality.keys()) + ["mean", "std"])
            for gi, group in enumerate(GROUP_NAMES):
                row = [group] + [f"{p[gi]:.17g}" for p in personality.values()]
                row += [f"{mean[gi]:.17g}", f"{std[gi]:.17g}"]
                writer.writerow(row)
        written["csv_personality_summary"] = path
        for trait, prof in personality.items():
            radar(trait, {trait: prof}, f"Joint importance: {trait}", overlay=mean)
    else:
        for trait, prof in personality.items():
            radar(trait, {trait: prof}, f"Joint importance: {trait}")

    if "EQ" in profiles and "SQ" in profiles:
        radar("EQ_SQ", {"EQ": profiles["EQ"], "SQ": profiles["SQ"]},
              "Joint importance: EQ and SQ")
    else:
        for trait in ("EQ", "SQ"):
            if trait in profiles:
                radar(trait, {trait: profiles[trait]}, f"Joint importance: {trait}")
    return written
