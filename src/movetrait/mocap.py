"""Marker ingestion, 20-joint skeleton derivation, and velocity estimation.

A recording ("take") is a frames x 63 matrix of 21 marker positions in
millimeters at a fixed frame rate. From the markers a 20-joint skeleton is
derived (labels A..T, joint-major column order), and joint velocities are
estimated by time differentiation followed by a zero-phase 2nd-order
Butterworth low-pass filter.
"""
from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.signal import filtfilt

DEFAULT_FRAME_RATE = 120.0
DEFAULT_CUTOFF_HZ = 24.0

MARKER_LABELS = (
    "LF_head", "RF_head", "B_head",
    "L_shoulder", "R_shoulder",
    "sternum", "stomach",
    "LB_hip", "RB_hip",
    "L_elbow", "R_elbow",
    "L_wrist", "R_wrist",
    "L_finger", "R_finger",
    "L_knee", "R_knee",
    "L_ankle", "R_ankle",
    "L_toe", "R_toe",
)

JOINT_LABELS = tuple("ABCDEFGHIJKLMNOPQRST")


class Kind(str, Enum):
    """Whether joint trajectories hold positions (mm) or velocities (mm/s)."""

    POSITION = "position"
    VELOCITY = "velocity"


class TakeFormatError(ValueError):
    """Raised when a take file or its sidecar violates the format contract."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MarkerTake:
    """One recording: frames x (3 * markers) positions in millimeters.

    Columns are marker-major: marker0.x, marker0.y, marker0.z, marker1.x, ...
    Values are immutable after construction and safe to share across threads.
    """

    data: np.ndarray
    frame_rate: float
    participant_id: str = ""
    stimulus_id: str = ""
    markers: tuple[str, ...] = MARKER_LABELS

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("marker data must be a 2-D frames x columns matrix")
        if data.shape[1] != 3 * len(self.markers):
            raise ValueError(
                f"column count mismatch: {data.shape[1]} columns for "
                f"{len(self.markers)} markers (expected {3 * len(self.markers)})"
            )
        if data.shape[0] < 2:
            raise ValueError("a take needs at least 2 frames")
        if not self.frame_rate > 0:
            raise ValueError(f"frame_rate must be positive, got {self.frame_rate}")
        if not np.isfinite(data).all():
            raise ValueError("non-finite sample in marker data")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def conformant(self) -> bool:
        """True when the take carries the standard 21-marker layout."""
        return len(self.markers) == 21


@dataclass(frozen=True)
class JointTake:
    """Derived 20-joint trajectories, frames x 60.

    Column order contract: joint-major, so column i belongs to joint
    i // 3 and coordinate i % 3 (0=X, 1=Y, 2=Z).
    """

    data: np.ndarray
    frame_rate: float
    kind: Kind
    participant_id: str = ""
    stimulus_id: str = ""
    joints: tuple[str, ...] = JOINT_LABELS

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if len(self.joints) != 20 or data.ndim != 2 or data.shape[1] != 60:
            raise ValueError("a joint take has 20 joints and 60 columns")
        if not self.frame_rate > 0:
            raise ValueError(f"frame_rate must be positive, got {self.frame_rate}")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "kind", Kind(self.kind))

    @property
    def frames(self) -> int:
        return self.data.shape[0]


# Joint recipes as (label, source marker indices); single-source joints copy
# the marker column, multi-source joints average them. Overridable via a
# skeleton map JSON file.
DEFAULT_JOINT_RECIPES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("A", (7, 8)),            # root: mid back hips
    ("B", (7,)),              # L hip
    ("C", (15,)),             # L knee
    ("D", (17,)),             # L ankle
    ("E", (19,)),             # L toe
    ("F", (8,)),              # R hip
    ("G", (16,)),             # R knee
    ("H", (18,)),             # R ankle
    ("I", (20,)),             # R toe
    ("J", (3, 4, 7, 8)),      # torso: shoulders + back hips
    ("K", (3, 4)),            # neck: mid shoulders
    ("L", (0, 1, 2)),         # head: three head markers
    ("M", (3,)),              # L shoulder
    ("N", (9,)),              # L elbow
    ("O", (11,)),             # L wrist
    ("P", (13,)),             # L finger
    ("Q", (4,)),              # R shoulder
    ("R", (10,)),             # R elbow
    ("S", (12,)),             # R wrist
    ("T", (14,)),             # R finger
)


@dataclass(frozen=True)
class SkeletonMap:
    """Marker-to-joint derivation table: each joint averages its sources."""

    recipes: tuple[tuple[str, tuple[int, ...]], ...] = DEFAULT_JOINT_RECIPES

    def __post_init__(self):
        if len(self.recipes) != 20:
            raise ValueError("a skeleton map defines exactly 20 joints")
        for label, sources in self.recipes:
            if not sources:
                raise ValueError(f"joint {label} has no source markers")
            if any(s < 0 or s >= 21 for s in sources):
                raise ValueError(f"joint {label} references a marker index outside 0..20")

    @property
    def joint_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.recipes)

    @classmethod
    def from_json(cls, path: str | Path) -> "SkeletonMap":
        entries = json.loads(Path(path).read_text())
        recipes = tuple(
            (str(e["joint_label"]), tuple(int(i) for i in e["source_markers"]))
            for e in entries
        )
        return cls(recipes)

    def to_json(self, path: str | Path) -> None:
        entries = [
            {"joint_label": label, "source_markers": list(sources)}
            for label, sources in self.recipes
        ]
        Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def _read_sidecar(take_path: Path, metadata) -> dict:
    if metadata is None:
        candidate = take_path.with_suffix(".json")
        if not candidate.exists():
            return {}
        metadata = candidate
    if isinstance(metadata, (str, Path)):
        try:
            side = json.loads(Path(metadata).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSON syntax or UTF-8 decoding
            raise TakeFormatError(f"{metadata}: invalid sidecar JSON ({exc})") from exc
        if not isinstance(side, dict):
            raise TakeFormatError(
                f"{metadata}: sidecar must be a JSON object, got {type(side).__name__}")
        return side
    return dict(metadata)


def _frame_rate(path: Path, side: dict) -> float:
    if "frame_rate" not in side:
        warnings.warn(
            f"{path}: sidecar omits frame_rate, assuming {DEFAULT_FRAME_RATE} Hz",
            stacklevel=3,
        )
        return DEFAULT_FRAME_RATE
    value = side["frame_rate"]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise TakeFormatError(f"{path}: frame_rate must be a finite number > 0, got {value!r}")
    return float(value)


def _parse_loadtxt(raw: bytes) -> tuple[tuple[str, ...], np.ndarray] | None:
    """Markers and samples from one C-level parse, or None to defer to the scan.

    Only a result the line scan would give bit for bit is returned: at least
    2 rows, 3 columns per marker, every sample finite. Everything else (bad
    rows, lone CR line ends, ``1_000``) is left to ``_scan_take``, which
    accepts or rejects it with file and line context.
    """
    markers, body = MARKER_LABELS, raw
    try:
        if raw.startswith(b"#MARKERS"):
            header, _, body = raw.partition(b"\n")
            header = header.rstrip(b"\r")
            if b"\r" in header:
                return None
            labels = header.decode("utf-8").split("\t")[1:]
            if labels:
                markers = tuple(labels)
        if not body or body.isspace():  # loadtxt warns on a body with no rows
            return None
        data = np.loadtxt(io.BytesIO(body), delimiter="\t", comments=None, ndmin=2,
                          encoding="utf-8")
    except ValueError:
        return None
    if data.shape[0] < 2 or data.shape[1] != 3 * len(markers) or not np.isfinite(data).all():
        return None
    return markers, data


def _scan_take(path: Path, raw: bytes) -> tuple[tuple[str, ...], np.ndarray]:
    """Line-by-line parse that names the file and line of the first bad row."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TakeFormatError(f"{path}: not valid UTF-8 ({exc})") from None

    markers = MARKER_LABELS
    rows: list[list[str]] = []
    linenos: list[int] = []
    # newline=None splits lines on \n, \r\n and \r, as a text-mode file does
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if lineno == 1 and line.startswith("#MARKERS"):
            labels = line.split("\t")[1:]
            if labels:
                markers = tuple(labels)
            continue
        rows.append(line.split("\t"))
        linenos.append(lineno)

    expected = 3 * len(markers)
    for parts, lineno in zip(rows, linenos):
        if len(parts) != expected:
            raise TakeFormatError(
                f"{path}:{lineno}: column count mismatch "
                f"({len(parts)} fields, expected {expected})"
            )
    if len(rows) < 2:
        raise TakeFormatError(f"{path}: fewer than 2 frames")

    try:
        data = np.asarray(rows, dtype=float)
    except ValueError:
        for parts, lineno in zip(rows, linenos):
            for tok in parts:
                try:
                    float(tok)
                except ValueError:
                    raise TakeFormatError(
                        f"{path}:{lineno}: unparseable value {tok!r}"
                    ) from None
        raise
    if not np.isfinite(data).all():
        bad = int(np.argwhere(~np.isfinite(data).all(axis=1))[0, 0])
        raise TakeFormatError(f"{path}:{linenos[bad]}: non-finite sample")

    return markers, data


def load_take(path: str | Path, metadata=None, *, raw: bytes | None = None) -> MarkerTake:
    """Read a tab-separated take file plus its metadata sidecar.

    The file may start with a single header line ``#MARKERS<TAB>label...``;
    every other line holds 3 * marker-count decimal numbers (mm). ``metadata``
    is a sidecar path or mapping supplying frame_rate, participant_id and
    stimulus_id; by default the file's ``.json`` sibling is used. A missing
    frame rate falls back to 120 Hz with a warning. ``raw`` is the file's
    bytes when the caller has already read them; otherwise the file is read
    once here.

    The bytes are parsed by one ``np.loadtxt`` call. Input it refuses goes
    through a line scan, which accepts what it can and otherwise raises
    TakeFormatError with file and line context on malformed rows,
    non-finite cells or fewer than 2 frames. Invalid UTF-8, a sidecar that
    is not a JSON object and a frame rate that is not a finite number > 0
    raise TakeFormatError naming the file.
    """
    path = Path(path)
    side = _read_sidecar(path, metadata)
    if raw is None:
        raw = path.read_bytes()
    markers, data = _parse_loadtxt(raw) or _scan_take(path, raw)
    return MarkerTake(
        data=data,
        frame_rate=_frame_rate(path, side),
        participant_id=str(side.get("participant_id", "")),
        stimulus_id=str(side.get("stimulus_id", "")),
        markers=markers,
    )


def derive_joints(take: MarkerTake, skeleton: SkeletonMap | None = None) -> JointTake:
    """Derive the 20-joint position trajectories from a 21-marker take.

    Single-source joints copy the marker columns bit for bit; multi-source
    joints take the per-frame, per-coordinate arithmetic mean.
    """
    if not take.conformant:
        raise ValueError(
            f"take has {len(take.markers)} markers, joint derivation needs 21"
        )
    skeleton = skeleton or SkeletonMap()
    out = np.empty((take.frames, 60), dtype=float)
    for jidx, (_, sources) in enumerate(skeleton.recipes):
        cols = out[:, 3 * jidx:3 * jidx + 3]
        if len(sources) == 1:
            m = sources[0]
            cols[:] = take.data[:, 3 * m:3 * m + 3]
        else:
            stack = np.stack([take.data[:, 3 * m:3 * m + 3] for m in sources])
            cols[:] = stack.mean(axis=0)
    return JointTake(
        data=out,
        frame_rate=take.frame_rate,
        kind=Kind.POSITION,
        participant_id=take.participant_id,
        stimulus_id=take.stimulus_id,
        joints=skeleton.joint_labels,
    )


def butter_lowpass(cutoff_hz: float, frame_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Design the 2nd-order digital Butterworth low-pass (bilinear transform).

    The analog prototype is prewarped so the digital half-power point lands
    exactly at ``cutoff_hz``. Coefficients are computed from the requested
    rates at call time.
    """
    if not 0 < cutoff_hz < frame_rate / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie strictly below Nyquist "
            f"({frame_rate / 2} Hz)"
        )
    k = math.tan(math.pi * cutoff_hz / frame_rate)
    k2 = k * k
    norm = k2 + math.sqrt(2.0) * k + 1.0
    b = np.array([k2, 2.0 * k2, k2]) / norm
    a = np.array([1.0, 2.0 * (k2 - 1.0) / norm, (k2 - math.sqrt(2.0) * k + 1.0) / norm])
    return b, a


def filter_magnitude_squared(
    b: np.ndarray, a: np.ndarray, freq_hz: float, frame_rate: float
) -> float:
    """Squared magnitude |H(e^{jw})|^2 of the filter at one frequency."""
    z = np.exp(-2j * math.pi * freq_hz / frame_rate)
    h = np.polyval(b[::-1], z) / np.polyval(a[::-1], z)
    return float(abs(h) ** 2)


def zero_phase_filter(data: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply the filter forward and backward along axis 0 (zero net phase).

    The two passes square the magnitude response, so the effective gain at
    the design cutoff is 1/2 rather than 1/sqrt(2).
    """
    n = data.shape[0]
    # default odd-extension length, shortened for very short inputs
    padlen = min(3 * max(len(a), len(b)), n - 2)
    return filtfilt(b, a, data, axis=0, padlen=padlen)


def differentiate(data: np.ndarray, frame_rate: float) -> np.ndarray:
    """Time derivative: central differences inside, one-sided at the ends."""
    out = np.empty_like(data, dtype=float)
    out[1:-1] = (data[2:] - data[:-2]) * (frame_rate / 2.0)
    out[0] = (data[1] - data[0]) * frame_rate
    out[-1] = (data[-1] - data[-2]) * frame_rate
    return out


def velocity(take: JointTake, cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> JointTake:
    """Estimate joint velocities (mm/s) from a position take.

    Differentiates each column and then applies the zero-phase 2nd-order
    Butterworth low-pass at ``cutoff_hz``. Requires at least 7 frames for
    the filter warm-up and a frame rate above twice the cutoff.
    """
    if take.kind is not Kind.POSITION:
        raise ValueError("velocity expects a position take")
    if take.frames < 7:
        raise ValueError(
            f"velocity needs at least 7 frames for filter warm-up, got {take.frames}"
        )
    if take.frame_rate <= 2 * cutoff_hz:
        raise ValueError(
            f"frame rate {take.frame_rate} Hz must exceed twice the cutoff "
            f"({cutoff_hz} Hz)"
        )
    b, a = butter_lowpass(cutoff_hz, take.frame_rate)
    vel = zero_phase_filter(differentiate(take.data, take.frame_rate), b, a)
    return JointTake(
        data=vel,
        frame_rate=take.frame_rate,
        kind=Kind.VELOCITY,
        participant_id=take.participant_id,
        stimulus_id=take.stimulus_id,
        joints=take.joints,
    )
