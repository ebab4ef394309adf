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
        object.__setattr__(self, "markers", tuple(self.markers))

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def conformant(self) -> bool:
        """True when the take lists the 21 standard marker labels in order."""
        return self.markers == MARKER_LABELS


@dataclass(frozen=True)
class JointTake:
    """Derived 20-joint trajectories, frames x 60.

    Column order contract: joint-major, so column i belongs to joint
    i // 3 and coordinate i % 3 (0=X, 1=Y, 2=Z).
    """

    data: np.ndarray
    frame_rate: float
    kind: Kind

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != 60:
            raise ValueError("a joint take has 20 joints and 60 columns")
        if not self.frame_rate > 0:
            raise ValueError(f"frame_rate must be positive, got {self.frame_rate}")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "kind", Kind(self.kind))

    @property
    def frames(self) -> int:
        return self.data.shape[0]


# Joint recipes as (label, source marker indices); single-source joints copy
# the marker column, multi-source joints average them.
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


def read_sidecar(take_path: Path, metadata=None) -> dict:
    """A take's sidecar as a dict: ``metadata`` if it is a mapping, else the
    JSON file it names, else the take's ``.json`` sibling; ``{}`` if that
    does not exist."""
    if metadata is None:
        candidate = take_path.with_suffix(".json")
        if not candidate.exists():
            return {}
        metadata = candidate
    if isinstance(metadata, (str, Path)):
        return parse_sidecar(Path(metadata).read_bytes(), metadata)
    return dict(metadata)


def parse_sidecar(raw: bytes, path) -> dict:
    """A sidecar's JSON object from the file's bytes; errors name ``path``."""
    try:
        side = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSON syntax or UTF-8 decoding
        raise TakeFormatError(f"{path}: invalid sidecar JSON ({exc})") from exc
    if not isinstance(side, dict):
        raise TakeFormatError(
            f"{path}: sidecar must be a JSON object, got {type(side).__name__}")
    return side


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


# The exact reader needs a long double whose significand holds any uint64 and
# whose division and multiplication round correctly: x87 extended or IEEE
# quad. IBM double-double (nexp 11) has a wide significand but does not round
# correctly, so it takes np.loadtxt like a plain 64-bit long double.
_EXACT_LONGDOUBLE = np.finfo(np.longdouble).nmant >= 63 and np.finfo(np.longdouble).nexp > 11
# 256 lines keep the reader's temporaries at a few MB per thread, which malloc
# reuses from block to block; at 1024 lines every block faulted in fresh pages
_BLOCK_LINES = 256
_PAD = 32            # leading bytes before a block, so every 32-byte window fits
_TAB, _NL, _DOT, _EXP, _PLUS, _MINUS = 1, 2, 3, 4, 5, 6
_CLASS = np.zeros(256, np.uint8)   # class of each byte a field may hold besides digits
_CLASS[[9, 10, 46, 69, 101, 43, 45]] = [_TAB, _NL, _DOT, _EXP, _EXP, _PLUS, _MINUS]
# _KEEP[i, t]: mask of lane i of a 24-byte row (little-endian, 8 bytes per
# lane) that keeps the row's bytes t..23
_KEEP = np.array([[(~0 << 8 * min(max(t - 8 * i, 0), 8)) & (2**64 - 1) for t in range(25)]
                  for i in range(3)], np.uint64)
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))   # 1 .. 1e27, exact
_DIVISOR = np.r_[_POW10[::-1], np.ones(27, np.longdouble)]      # by decimal exponent + 27
_MULTIPLIER = np.r_[np.ones(27, np.longdouble), _POW10]


def _swar8(lanes: np.ndarray) -> np.ndarray:
    """Eight ASCII digits per little-endian uint64 lane to their integer value.

    The first byte is the most significant digit; zero bytes read as 0.
    """
    v = lanes & 0x0F0F0F0F0F0F0F0F
    v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF
    v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF
    return (v * 10000 + (v >> 32)) & 0xFFFFFFFF


def _windows(buf: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` before each offset in ``ends``.

    Returned as ``width // 8`` rows of little-endian uint64 lanes, one
    column per offset; lane 0 holds the first 8 bytes.
    """
    rows = np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))[ends - width]
    return np.ascontiguousarray(rows.view("<u8").reshape(len(ends), width // 8).T)


def _read_block(buf: np.ndarray, nlines: int, width: int, out: np.ndarray) -> bool:
    """Parse ``nlines`` lines from ``buf[_PAD:]`` into ``out``; False on any grammar breach."""
    block = buf[_PAD:]
    n = nlines * width
    tok = np.flatnonzero((block - 48) >= 10)   # every byte that is not a digit
    cls = np.take(_CLASS, np.take(block, tok))
    if not cls.all():
        return False
    sep = cls <= _NL
    fe = np.compress(sep, tok)                 # field ends
    # the block holds nlines newlines, so this gives every line width fields
    if len(fe) != n or not (np.take(block, fe[width - 1::width]) == 10).all():
        return False
    fs = np.empty(n, np.intp)                  # field starts
    fs[0] = 0
    np.add(fe[:-1], 1, out=fs[1:])

    mi = np.flatnonzero(~sep)                  # dots, exponent marks and signs
    mcls = np.take(cls, mi)
    de = mcls < _PLUS
    field = np.compress(de, mi) - np.flatnonzero(de)   # separators before the mark
    at = np.take(tok, np.compress(de, mi))
    is_exp = np.compress(de, mcls) == _EXP
    key = 2 * field + is_exp
    if (key[1:] <= key[:-1]).any():
        return False   # two dots or two exponent marks in a field, or a dot after one
    dot = np.full(n, -1, np.intp)
    exp = np.full(n, -1, np.intp)
    dot[field[~is_exp]] = at[~is_exp]
    exp[field[is_exp]] = at[is_exp]
    signs = len(mi) - len(field)

    lead = np.take(_CLASS, np.take(block, fs))
    neg = lead == _MINUS
    signed = neg | (lead == _PLUS)
    has_exp = exp >= 0
    has_dot = dot >= 0
    me = np.where(has_exp, exp, fe)            # mantissa ends
    digits = me - fs - signed - has_dot
    if (digits < 1).any():
        return False
    frac = np.where(has_dot, me - dot - 1, 0)

    # the mantissa's last 24 bytes, with the bytes left of the dot moved one
    # place right over it and the bytes left of the first digit cleared
    w = _windows(buf, me + _PAD, 32)
    a = w[1:]
    b = (a << 8) | (w[:-1] >> 56)
    from_a = np.take(_KEEP, np.where(has_dot, np.maximum(24 - frac, 0), 0), axis=1)
    lanes = b ^ ((a ^ b) & from_a)
    lanes &= np.take(_KEEP, np.maximum(24 - digits, 0), axis=1)
    m = _swar8(lanes)
    slow = (digits > 24) | (m[0] >= 1000)      # mantissa may not fit in 64 bits
    mant = m[0] * 10**16 + m[1] * 10**8 + m[2]

    e10 = -frac
    ef = np.flatnonzero(has_exp)
    if len(ef):
        after = np.take(exp, ef) + 1
        acls = np.take(_CLASS, np.take(block, after))
        esigned = acls >= _PLUS
        signs -= np.count_nonzero(esigned)
        elen = np.take(fe, ef) - after - esigned
        if (elen < 1).any():
            return False
        ev = _swar8(_windows(buf, np.take(fe, ef) + _PAD, 8)[0]
                    & np.take(_KEEP[2], np.maximum(24 - elen, 16))).astype(np.intp)
        e10[ef] += np.where(acls == _MINUS, -ev, ev)
        slow[ef[elen > 8]] = True
    if signs != np.count_nonzero(signed):
        return False   # a sign neither first in its field nor right after the exponent mark
    slow |= np.abs(e10) > 27

    scale = np.clip(e10 + 27, 0, 54)
    q = mant.astype(np.longdouble)
    q /= np.take(_DIVISOR, scale)
    if (e10 > 0).any():
        q *= np.take(_MULTIPLIER, scale)
    vals = q.astype(np.float64)
    rem = q - vals
    twice = q + rem
    slow |= (rem != 0) & (twice.astype(np.float64) == twice)   # q is a float64 midpoint
    vals *= 1 - 2 * neg.view(np.int8)          # "-0" reads as -0.0
    for i in np.flatnonzero(slow):
        vals[i] = float(block[fs[i]:fe[i]].tobytes())
    out[...] = vals.reshape(nlines, width)
    return True


def _read_decimal(body: bytes, width: int) -> np.ndarray | None:
    """Exact vectorized parse of a take body, or None for anything outside its grammar.

    Every line holds exactly ``width`` fields ``[+-]digits[.digits][(e|E)[+-]digits]``
    (at least one mantissa digit) separated by tabs and ends with ``\\n``; the
    last line's ``\\n`` may be missing.
    Any other byte or shape (CR, blank lines, spaces, ``nan``, ``1_000``,
    empty fields, short rows, a second dot or exponent) returns None.

    The body is parsed 256 lines at a time with numpy array operations,
    which release the GIL, so threads parse takes in parallel. Each value
    equals ``float()`` of its field bit for bit:

    - The mantissa digits M are read 8 at a time with the SWAR step of
      Lemire, "Number Parsing at a Gigabyte per Second" (SPE 2021).
    - With M < 2**64 and a decimal exponent E, |E| <= 27, both M and 10**|E|
      are exact in a 64-bit long double significand (5**27 < 2**63), so one
      long-double division or multiplication gives q, the true value x
      correctly rounded to 64 bits (Clinger, "How to Read Floating Point
      Numbers Accurately", PLDI 1990).
    - Casting q to float64 rounds a second time. Every float64 midpoint has
      54 significant bits and so lies on the 64-bit grid; since q is the
      grid point nearest x, no midpoint lies strictly between x and q, and
      both round to the same float64 unless q is itself a midpoint.
    - Fields whose q is a midpoint, |E| > 27, an exponent of more than 8
      digits or a mantissa that may reach 2**64 (more than 24 digits, or
      10**19 and up) take ``float()`` on their own bytes. A ``%.17g`` or
      ``repr`` value lies next to a float64, not on a midpoint, so these
      are rare.
    """
    if not body.endswith(b"\n"):
        body += b"\n"   # a last line without its newline reads like one with it
    raw = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(raw == 10) + 1
    out = np.empty((len(ends), width))
    start = 0
    for first in range(0, len(ends), _BLOCK_LINES):
        last = min(first + _BLOCK_LINES, len(ends))
        end = ends[last - 1]
        buf = np.empty(end - start + _PAD, np.uint8)
        buf[:_PAD] = 48
        buf[_PAD:] = raw[start:end]
        if not _read_block(buf, last - first, width, out[first:last]):
            return None
        start = end
    return out


def _parse_fast(raw: bytes) -> tuple[tuple[str, ...], np.ndarray] | None:
    """Markers and samples from the vectorized reader or one ``np.loadtxt``
    call, or None to defer to the scan.

    ``np.loadtxt`` runs on what ``_read_decimal`` declines, and where the long
    double is too narrow for the reader. Only a result the line scan would
    give bit for bit is returned: at least 2 rows, 3 columns per marker,
    every sample finite. Everything else (bad rows, lone CR line ends,
    ``1_000``) is left to ``_scan_take``, which accepts or rejects it with
    file and line context.
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
        data = _read_decimal(body, 3 * len(markers)) if _EXACT_LONGDOUBLE else None
        if data is None:
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

    The bytes are parsed by an exact vectorized reader that releases the
    GIL, or, outside its strict grammar, by one ``np.loadtxt`` call. Input
    both refuse goes through a line scan, which accepts what it can and
    otherwise raises TakeFormatError with file and line context on
    malformed rows, non-finite cells or fewer than 2 frames. Invalid UTF-8, a sidecar that
    is not a JSON object and a frame rate that is not a finite number > 0
    raise TakeFormatError naming the file.
    """
    path = Path(path)
    side = read_sidecar(path, metadata)
    if raw is None:
        raw = path.read_bytes()
    markers, data = _parse_fast(raw) or _scan_take(path, raw)
    return MarkerTake(
        data=data,
        frame_rate=_frame_rate(path, side),
        participant_id=str(side.get("participant_id", "")),
        stimulus_id=str(side.get("stimulus_id", "")),
        markers=markers,
    )


def derive_joints(take: MarkerTake) -> JointTake:
    """Derive the 20-joint position trajectories from a 21-marker take.

    The markers are read by position, so the take must list the standard
    labels (``MARKER_LABELS``) in their order.

    Single-source joints copy the marker columns bit for bit; multi-source
    joints take the per-frame, per-coordinate arithmetic mean.
    """
    if len(take.markers) != len(MARKER_LABELS):
        raise ValueError(
            f"take has {len(take.markers)} markers, joint derivation needs 21"
        )
    if not take.conformant:
        i = next(i for i, (got, want) in enumerate(zip(take.markers, MARKER_LABELS))
                 if got != want)
        raise ValueError(
            f"marker {i + 1} is {take.markers[i]!r}, joint derivation needs "
            f"{MARKER_LABELS[i]!r} there (the 21 standard labels in order)"
        )
    out = np.empty((take.frames, 60), dtype=float)
    for jidx, (_, sources) in enumerate(DEFAULT_JOINT_RECIPES):
        cols = out[:, 3 * jidx:3 * jidx + 3]
        if len(sources) == 1:
            m = sources[0]
            cols[:] = take.data[:, 3 * m:3 * m + 3]
        else:
            stack = np.stack([take.data[:, 3 * m:3 * m + 3] for m in sources])
            cols[:] = stack.mean(axis=0)
    return JointTake(data=out, frame_rate=take.frame_rate, kind=Kind.POSITION)


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


# Time steps per block of the zero-phase filter. Each step is one einsum over
# all blocks and columns, and the carry between blocks takes log2(blocks)
# steps; 32 ran fastest on 4200-frame takes (see CHANGES).
_FILTER_BLOCK = 32


def _pole_responses(a1: float, a2: float) -> tuple[list[float], list[float]]:
    """Zero-input response of ``y[i] = -a1 y[i-1] - a2 y[i-2]`` over one block,
    from ``(y[-1], y[-2]) = (1, 0)`` and from ``(1, 1)``, in Python floats."""
    h, g = [], []
    h1, h2, g1, g2 = 1.0, 0.0, 1.0, 1.0
    for _ in range(_FILTER_BLOCK):
        h1, h2 = -a1 * h1 - a2 * h2, h1
        g1, g2 = -a1 * g1 - a2 * g2, g1
        h.append(h1)
        g.append(g1)
    return h, g


def _filter_pass(z: np.ndarray, forward: bool, coef: np.ndarray,
                 folds: tuple, responses: tuple[list[float], list[float]]) -> None:
    """One causal pass of the 2nd-order filter over the block layout ``z``, in place.

    ``z`` has shape (2L + 8, blocks, columns) for L = ``_FILTER_BLOCK``;
    block k holds time steps kL .. kL + L - 1 of the padded signal. Step i
    of a block lives in rows 2i + 4 (the forward pass's input) and 2i + 5
    (its output). The backward pass runs from the last step to the first,
    reads the forward output and writes over the forward input. Either
    way a step's three inputs and two earlier outputs are five adjacent
    rows, so one einsum with ``coef`` computes the step for every block
    and column. Rows 0-3 and 2L + 4 .. 2L + 7 hold the two steps before
    and after the block: the neighbouring block's inputs, and zero
    outputs, so every block starts from rest.

    ``folds`` lists ``(step, block, state)``: the filter state added to the
    output at that step, which starts the filter there. Then each block's
    entry state follows from the ends of the blocks before it by doubling
    (Blelloch, "Prefix sums and their applications", 1990), and one
    two-term correction adds its response to every step. The state is
    held as ``(y[-1] - y[-2], y[-2])``: on a smooth signal the first term
    is small, so the correction does not cancel large terms, and the
    result is as accurate as the plain recursion.
    """
    L = _FILTER_BLOCK
    blocks = z.shape[1]
    for i in (range(L) if forward else range(L - 1, -1, -1)):
        window, out = (z[2 * i:2 * i + 5], z[2 * i + 5]) if forward else \
            (z[2 * i + 5:2 * i + 10], z[2 * i + 4])
        np.einsum("k,kbc->bc", coef, window, out=out)
        for step, block, state in folds:
            if step == i:
                out[block] += state
    ys = z[5:2 * L + 4:2] if forward else z[4:2 * L + 3:2]
    # each block's end state from rest, as the entry state of the next
    src, dst = (slice(None, -1), slice(1, None)) if forward else (slice(1, None), slice(None, -1))
    last, before = (ys[L - 1], ys[L - 2]) if forward else (ys[0], ys[1])
    entry = np.zeros((2,) + ys.shape[1:])
    np.subtract(last[src], before[src], out=entry[0, dst])
    entry[1, dst] = before[src]
    # m maps a block's entry state to its end state; step d of the doubling
    # adds the end states of d blocks back, carried through m**d
    h, g = responses
    m = (h[L - 1] - h[L - 2], g[L - 1] - g[L - 2], h[L - 2], g[L - 2])
    scratch = np.empty_like(entry)
    d = 1
    while d < blocks:
        k = blocks - d
        src, dst = (slice(None, k), slice(d, None)) if forward else (slice(d, None), slice(None, k))
        u = scratch[:, :k]
        np.einsum("ij,jbc->ibc", np.reshape(m, (2, 2)), entry[:, src], out=u)
        entry[:, dst] += u
        m11, m12, m21, m22 = m
        m = (m11 * m11 + m12 * m21, m11 * m12 + m12 * m22,
             m21 * m11 + m22 * m21, m21 * m12 + m22 * m22)
        d *= 2
    # each step's response to the entry state, in pass order
    shares = np.array([h, g]).T
    if not forward:
        shares = shares[::-1].copy()
    tmp = np.empty((8,) + ys.shape[1:])
    for r in range(0, L, 8):
        t = tmp[:len(shares[r:r + 8])]
        np.einsum("rk,kbc->rbc", shares[r:r + 8], entry, out=t)
        ys[r:r + 8] += t


def zero_phase_filter(data: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply the 2nd-order filter ``(b, a)`` forward and backward along axis 0
    (zero net phase).

    The two passes square the magnitude response, so the effective gain at
    the design cutoff is 1/2 rather than 1/sqrt(2).

    This is ``scipy.signal.filtfilt(b, a, data, axis=0, padlen=min(9, n - 2))``:
    scipy's default method, and for ``n`` >= 11 its default ``padlen`` of
    three times the coefficient count. The ``n`` samples are extended at
    both ends by an odd reflection of ``padlen`` samples. The forward pass
    starts from the step-response steady state scaled by the first
    extended sample, the backward pass from the same state scaled by the
    last forward output (Gustafsson, "Determining the initial states in
    forward-backward filtering", IEEE TSP 1996). Then the padding is cut
    off. The recursion is evaluated in blocks of time steps
    (``_filter_pass``), with numpy only.
    """
    if len(b) != 3 or len(a) != 3:
        raise ValueError("zero_phase_filter takes a 2nd-order filter (3 b and 3 a coefficients)")
    a0 = float(a[0])
    b0, b1, b2 = (float(c) / a0 for c in b)
    a1, a2 = float(a[1]) / a0, float(a[2]) / a0
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"zero_phase_filter needs at least 2 samples, got {n}")
    x = x.reshape(n, -1)
    cols = x.shape[1]
    pad = min(9, n - 2)
    length = n + 2 * pad
    L = _FILTER_BLOCK
    # two blocks at least: with one block and one column, each einsum would
    # loop over its five terms alone, which numpy sums in another order
    blocks = max(2, -(-length // L))
    lead = blocks * L - length   # zero steps before the padded signal
    # row of z.reshape(-1, cols) that holds forward input step t
    t = np.arange(blocks * L)
    at = (2 * (t % L) + 4) * blocks + t // L
    z = np.empty((2 * L + 8, blocks, cols))
    flat = z.reshape(-1, cols)
    front = 2 * x[0] - x[pad:0:-1]
    back = 2 * x[-1] - x[-2:-pad - 2:-1]
    flat[at[:lead]] = 0
    flat[at[lead:lead + pad]] = front
    flat[at[lead + pad:lead + pad + n]] = x
    flat[at[lead + pad + n:]] = back
    z[:4] = 0
    z[2 * L + 4:] = 0
    z[0, 1:] = z[2 * L, :-1]
    z[2, 1:] = z[2 * L + 2, :-1]

    # lfilter_zi of a 2nd-order section: the direct-form-II-transposed state
    # that a unit step holds at steady state
    gain = (b0 + b1 + b2) / (1.0 + a1 + a2)
    zi = (gain - b0, b2 - a2 * gain)
    responses = _pole_responses(a1, a2)
    first = front[0] if pad else x[0]
    folds = tuple(((lead + k) % L, (lead + k) // L, zi[k] * first) for k in (0, 1))
    _filter_pass(z, True, np.array([b2, -a2, b1, -a1, b0]), folds, responses)

    # backward inputs after each block: the next block's first two forward
    # outputs (zero after the last block, where the backward pass starts)
    z[2 * L + 5, :-1] = z[5, 1:]
    z[2 * L + 7, :-1] = z[7, 1:]
    end = z[2 * L + 3, -1].copy()
    folds = tuple((L - 1 - k, blocks - 1, zi[k] * end) for k in (0, 1))
    _filter_pass(z, False, np.array([b0, -a1, b1, -a2, b2]), folds, responses)
    return np.take(flat, at[lead + pad:lead + pad + n], axis=0).reshape(np.shape(data))


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
    return JointTake(data=vel, frame_rate=take.frame_rate, kind=Kind.VELOCITY)
