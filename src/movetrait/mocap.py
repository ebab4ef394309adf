"""Marker ingestion, 20-joint skeleton derivation, and velocity estimation.

A recording ("take") is a frames x 63 matrix of 21 marker positions in
millimeters at a fixed frame rate. From the markers a 20-joint skeleton is
derived (labels A..T, joint-major column order), and joint velocities are
estimated by time differentiation followed by a zero-phase 2nd-order
Butterworth low-pass filter.
"""
from __future__ import annotations

import json
import math
import mmap
import threading
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

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

# The one take layout (see load_take): x, y, z of each marker, in order
TAKE_WIDTH = 3 * len(MARKER_LABELS)
TAKE_HEADER = "\t".join(("#MARKERS",) + MARKER_LABELS)
_HEADERS = (b"#MARKERS", TAKE_HEADER.encode())

JOINT_LABELS = tuple("ABCDEFGHIJKLMNOPQRST")


class TakeFormatError(ValueError):
    """Raised when a take file or its sidecar violates the format contract."""


@dataclass(frozen=True)
class MarkerTake:
    """One recording: frames x 63 positions in millimeters.

    Columns are marker-major: marker0.x, marker0.y, marker0.z, marker1.x, ...
    Values are immutable after construction and safe to share across threads.
    """

    data: np.ndarray
    frame_rate: float
    participant_id: str = ""
    stimulus_id: str = ""

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != TAKE_WIDTH:
            raise ValueError(f"marker data must be frames x {TAKE_WIDTH}, got shape {data.shape}")
        if data.shape[0] < 2:
            raise ValueError("a take needs at least 2 frames")
        if not self.frame_rate > 0:
            raise ValueError(f"frame_rate must be positive, got {self.frame_rate}")
        if not np.isfinite(data).all():
            raise ValueError("non-finite sample in marker data")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

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
    """A take's sidecar, checked as ``parse_sidecar`` checks it: ``metadata``
    if it is a mapping, else the take's ``.json`` sibling, else ``{}``."""
    side_path = take_path.with_suffix(".json")
    if metadata is None and side_path.exists():
        return parse_sidecar(side_path.read_bytes(), take_path)
    return _with_frame_rate(take_path, dict(metadata or {}))


def parse_sidecar(raw: bytes, take_path: Path) -> dict:
    """The JSON object in the bytes of ``take_path``'s sidecar, with its
    ``frame_rate`` checked: TakeFormatError naming the sidecar if it is not
    a JSON object, naming the take if the rate is not a finite number > 0.
    A missing rate falls back to 120 Hz with a warning."""
    side_path = take_path.with_suffix(".json")
    try:
        side = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSON syntax or UTF-8 decoding
        raise TakeFormatError(f"{side_path}: invalid sidecar JSON ({exc})") from exc
    if not isinstance(side, dict):
        raise TakeFormatError(
            f"{side_path}: sidecar must be a JSON object, got {type(side).__name__}")
    return _with_frame_rate(take_path, side)


def _with_frame_rate(take_path: Path, side: dict) -> dict:
    value = side.get("frame_rate")
    if "frame_rate" not in side:
        warnings.warn(
            f"{take_path}: sidecar omits frame_rate, assuming {DEFAULT_FRAME_RATE} Hz",
            stacklevel=4,
        )
        value = DEFAULT_FRAME_RATE
    elif (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise TakeFormatError(
            f"{take_path}: frame_rate must be a finite number > 0, got {value!r}")
    return {**side, "frame_rate": float(value)}


# The exact reader needs a long double whose significand holds any uint64 and
# whose division and multiplication round correctly: x87 extended or IEEE
# quad. IBM double-double (nexp 11) has a wide significand but does not round
# correctly, so there, as with a plain 64-bit long double, takes and feature
# CSVs go to the line scan.
_EXACT_LONGDOUBLE = np.finfo(np.longdouble).nmant >= 63 and np.finfo(np.longdouble).nexp > 11
# Lines per block of a take. A block's arrays live in the thread's _Workspace (6.4 MiB
# for 256 lines of 63 `%.17g` fields), reused from block to block and take to
# take: glibc hands freed temporaries of that size back to the kernel after
# each block of a short take, and every block would fault them in afresh.
# 1024-line blocks parse slower, and 64 lines or fewer pay so much overhead
# per block that ingest_long's extract went from 1.4 s to 2.4 s and more.
_BLOCK_LINES = 256
_CHUNK = 1 << 18     # bytes scanned for line ends at a time
_PAD = 32            # leading bytes before a block, so every 32-byte window fits
# Lines per block of a feature CSV. A row of 1770 `%.17g` cells is about
# 37 KB; 4-line blocks parsed a 40-row file fastest (1 and 16 lines took 1.4
# and 1.1 times as long) in a workspace of about 3.8 MB, which lives for one
# file.
_CSV_BLOCK_LINES = 4
_SEP, _NL, _DOT, _EXP, _PLUS, _MINUS = 1, 2, 3, 4, 5, 6


def _byte_classes(sep: str) -> np.ndarray:
    """The class of each byte a field may hold besides digits, with ``sep``
    between fields; 0 for every byte no field may hold."""
    table = np.zeros(256, np.uint8)
    table[[ord(sep), 10, 46, 69, 101, 43, 45]] = [_SEP, _NL, _DOT, _EXP, _EXP, _PLUS, _MINUS]
    return table


_CLASS = {sep: _byte_classes(sep) for sep in "\t,"}   # by field separator

# _KEEP[i, t]: mask of lane i of a 24-byte row (little-endian, 8 bytes per
# lane) that keeps the row's bytes t..23
_KEEP = np.array([[(~0 << 8 * min(max(t - 8 * i, 0), 8)) & (2**64 - 1) for t in range(25)]
                  for i in range(3)], np.uint64)
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))   # 1 .. 1e27, exact
_DIVISOR = np.r_[_POW10[::-1], np.ones(27, np.longdouble)]      # by decimal exponent + 27
_MULTIPLIER = np.r_[np.ones(27, np.longdouble), _POW10]

# The workspace's arrays as (names, dtype, length per byte of capacity, per
# field of capacity). Per byte: the block with its padding, the line-end scan,
# and per-token values; per field: at most two dots or exponent marks, and the
# 4 + 3 + 3 + 3 window, lane, scratch and mask rows of the SWAR step.
_WORKSPACE = (
    ("buf scratch cls mcls", np.uint8, 1, 0),
    ("mask sep de", np.bool_, 1, 0),
    ("dm key at pos", np.intp, 0, 2),
    ("is_exp order", np.bool_, 0, 2),
    ("fe fs me digits frac e10 idx", np.intp, 0, 1),
    ("lead", np.uint8, 0, 1),
    ("neg signed has_dot has_exp slow flag flag2", np.bool_, 0, 1),
    ("w", np.uint64, 0, 4),
    ("lanes tmp keep", np.uint64, 0, 3),
    ("q d", np.longdouble, 0, 1),
    ("rounded", np.float64, 0, 1),
)


class _Workspace:
    """The block arrays of ``_read_block`` for one thread, as typed views of
    one anonymous memory mapping.

    ``nbytes`` bounds a block with its ``_PAD`` leading bytes and final
    newline, and is at least ``_CHUNK``; ``nfields`` bounds its fields. A
    block slices what it needs from the front of each array. The mapping is
    the thread's own and not the heap's, so the pages stay mapped between
    blocks, and are unmapped when the thread's ``threading.local`` goes.
    """

    def __init__(self, nbytes: int, nfields: int):
        self.nbytes, self.nfields = nbytes, nfields
        layout = [(name, np.dtype(dtype), per_byte * nbytes + per_field * nfields)
                  for names, dtype, per_byte, per_field in _WORKSPACE for name in names.split()]
        sizes = [-(-dtype.itemsize * length // 64) * 64 for _, dtype, length in layout]
        mapping = mmap.mmap(-1, sum(sizes), flags=mmap.MAP_PRIVATE)
        offset = 0
        for (name, dtype, length), size in zip(layout, sizes):
            setattr(self, name, np.frombuffer(mapping, dtype, length, offset))
            offset += size
        self.buf[:_PAD] = 48


_LOCAL = threading.local()


def _workspace(nbytes: int, nfields: int, owner=_LOCAL) -> _Workspace:
    """``owner.workspace``, first grown to at least ``nbytes`` and ``nfields``;
    by default the owner is this thread's ``_LOCAL``.

    Byte capacity grows in steps of 64 KiB, so takes whose longest blocks
    differ by a few bytes share one mapping.
    """
    ws = getattr(owner, "workspace", None)
    if ws is None or ws.nbytes < nbytes or ws.nfields < nfields:
        if ws is not None:
            nbytes, nfields = max(nbytes, ws.nbytes), max(nfields, ws.nfields)
        ws = owner.workspace = _Workspace(max(-(-nbytes >> 16) << 16, _CHUNK), nfields)
    return ws


def _swar8(v: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Eight ASCII digits per little-endian uint64 lane of ``v`` to their
    integer value, in place; ``tmp`` is scratch of ``v``'s shape.

    The first byte is the most significant digit; zero bytes read as 0.
    """
    v &= 0x0F0F0F0F0F0F0F0F
    for shift, scale, keep in ((8, 10, 0x00FF00FF00FF00FF), (16, 100, 0x0000FFFF0000FFFF),
                               (32, 10000, 0xFFFFFFFF)):
        np.right_shift(v, shift, out=tmp)
        v *= scale
        v += tmp
        v &= keep
    return v


def _windows(buf: np.ndarray, starts: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each offset in ``starts``, into ``out``.

    ``out`` has ``width // 8`` rows of little-endian uint64 lanes and one
    column per offset; lane 0 holds the first 8 bytes.
    """
    rows = np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))[starts]
    np.copyto(out, rows.view("<u8").reshape(len(starts), width // 8).T)
    return out


def _read_block(ws: _Workspace, size: int, nlines: int, width: int, out: np.ndarray,
                classes: np.ndarray) -> bool:
    """Parse ``nlines`` lines from ``ws.buf[_PAD:size]`` into the flat ``out``,
    with ``classes`` the ``_CLASS`` table of the field separator; False on
    any grammar breach.

    Every block-sized array is a slice of ``ws``, apart from the offsets
    that ``np.flatnonzero`` returns and the gathered 32-byte windows.
    """
    buf = ws.buf[:size]
    block = buf[_PAD:]
    nb = len(block)
    n = nlines * width
    np.subtract(block, 48, out=ws.scratch[:nb])
    tok = np.flatnonzero(np.greater_equal(ws.scratch[:nb], 10, out=ws.mask[:nb]))  # not digits
    t = len(tok)
    # mode="clip" wherever the indices are in range: take's default mode
    # copies its output first
    cls = np.take(classes, np.take(block, tok, out=ws.scratch[:t], mode="clip"),
                  out=ws.cls[:t], mode="clip")
    if not cls.all():
        return False
    sep = np.less_equal(cls, _NL, out=ws.sep[:t])
    # the block holds nlines newlines, so this gives every line width fields
    if np.count_nonzero(sep) != n:
        return False
    fe = np.take(tok, np.flatnonzero(sep), out=ws.fe[:n], mode="clip")   # field ends
    if not (np.take(block, fe[width - 1::width]) == 10).all():
        return False
    fs = ws.fs[:n]                             # field starts
    fs[0] = 0
    np.add(fe[:-1], 1, out=fs[1:])

    mi = np.flatnonzero(np.logical_not(sep, out=sep))   # dots, exponent marks and signs
    mcls = np.take(cls, mi, out=ws.mcls[:len(mi)], mode="clip")
    di = np.flatnonzero(np.less(mcls, _PLUS, out=ws.de[:len(mi)]))   # dots and exponent marks
    nd = len(di)
    if nd > 2 * n:
        return False   # more than one dot and one exponent mark a field
    dm = np.take(mi, di, out=ws.dm[:nd], mode="clip")
    key = np.subtract(dm, di, out=ws.key[:nd])   # separators before the mark: its field
    is_exp = np.equal(np.take(mcls, di, out=ws.scratch[:nd], mode="clip"), _EXP,
                      out=ws.is_exp[:nd])
    key *= 2
    key += is_exp
    if np.less_equal(key[1:], key[:-1], out=ws.order[:max(nd - 1, 0)]).any():
        return False   # two dots or two exponent marks in a field, or a dot after one
    pos = ws.pos[:2 * n]
    pos.fill(-1)
    np.put(pos, key, np.take(tok, dm, out=ws.at[:nd], mode="clip"), mode="clip")
    dot, exp = pos[0::2], pos[1::2]
    signs = len(mi) - nd

    lead = np.take(classes, np.take(block, fs, out=ws.scratch[:n], mode="clip"),
                   out=ws.lead[:n], mode="clip")
    neg = np.equal(lead, _MINUS, out=ws.neg[:n])
    signed = np.greater_equal(lead, _PLUS, out=ws.signed[:n])
    has_exp = np.greater_equal(exp, 0, out=ws.has_exp[:n])
    has_dot = np.greater_equal(dot, 0, out=ws.has_dot[:n])
    me = ws.me[:n]                             # mantissa ends
    np.copyto(me, fe)
    np.copyto(me, exp, where=has_exp)
    digits = np.subtract(me, fs, out=ws.digits[:n])
    digits -= signed
    digits -= has_dot
    if digits.min() < 1:
        return False
    frac = np.subtract(me, dot, out=ws.frac[:n])
    frac -= 1
    frac *= has_dot

    # the mantissa's last 24 bytes, with the bytes left of the dot moved one
    # place right over it and the bytes left of the first digit cleared
    idx = ws.idx[:n]
    w = _windows(buf, np.add(me, _PAD - 32, out=idx), 32, ws.w[:4 * n].reshape(4, n))
    a = w[1:]
    lanes = np.left_shift(a, 8, out=ws.lanes[:3 * n].reshape(3, n))
    tmp = np.right_shift(w[:-1], 56, out=ws.tmp[:3 * n].reshape(3, n))
    lanes |= tmp
    np.subtract(24, frac, out=idx)
    np.maximum(idx, 0, out=idx)
    idx *= has_dot
    keep = np.take(_KEEP, idx, axis=1, out=ws.keep[:3 * n].reshape(3, n), mode="clip")
    np.bitwise_xor(a, lanes, out=tmp)
    tmp &= keep
    lanes ^= tmp
    np.subtract(24, digits, out=idx)
    np.maximum(idx, 0, out=idx)
    lanes &= np.take(_KEEP, idx, axis=1, out=keep, mode="clip")
    m = _swar8(lanes, tmp)
    slow = np.greater(digits, 24, out=ws.slow[:n])
    slow |= np.greater_equal(m[0], 1000, out=ws.flag[:n])   # mantissa may not fit in 64 bits
    mant = m[0]                                # m[0] * 10**16 + m[1] * 10**8 + m[2]
    mant *= 10**8
    mant += m[1]
    mant *= 10**8
    mant += m[2]

    e10 = np.negative(frac, out=ws.e10[:n])
    ef = np.flatnonzero(has_exp)
    if len(ef):
        after = np.take(exp, ef) + 1
        acls = np.take(classes, np.take(block, after))
        esigned = acls >= _PLUS
        signs -= np.count_nonzero(esigned)
        ends = np.take(fe, ef)
        elen = ends - after - esigned
        if (elen < 1).any():
            return False
        ev = _windows(buf, ends + (_PAD - 8), 8, np.empty((1, len(ef)), np.uint64))[0]
        ev &= np.take(_KEEP[2], np.maximum(24 - elen, 16))
        ev = _swar8(ev, np.empty_like(ev)).astype(np.intp)
        e10[ef] += np.where(acls == _MINUS, -ev, ev)
        slow[ef[elen > 8]] = True
    if signs != np.count_nonzero(signed):
        return False   # a sign neither first in its field nor right after the exponent mark
    scale = np.abs(e10, out=idx)
    slow |= np.greater(scale, 27, out=ws.flag[:n])
    np.add(e10, 27, out=scale)
    np.clip(scale, 0, 54, out=scale)

    q = ws.q[:n]
    np.copyto(q, mant)
    q /= np.take(_DIVISOR, scale, out=ws.d[:n], mode="clip")
    if e10.max() > 0:
        q *= np.take(_MULTIPLIER, scale, out=ws.d[:n], mode="clip")
    np.copyto(out, q)                          # rounds to float64
    rem = np.subtract(q, out, out=ws.d[:n])
    twice = np.add(q, rem, out=q)
    rounded = ws.rounded[:n]
    np.copyto(rounded, twice)
    on_grid = np.equal(rounded, twice, out=ws.flag[:n])
    on_grid &= np.not_equal(rem, 0, out=ws.flag2[:n])
    slow |= on_grid                            # q is a float64 midpoint
    np.negative(out, out=out, where=neg)       # "-0" reads as -0.0
    for i in np.flatnonzero(slow):
        out[i] = float(block[fs[i]:fe[i]].tobytes())
    return True


def _line_ends(raw: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Offsets just past every ``\\n`` of ``raw``, found ``_CHUNK`` bytes at a
    time through ``mask``, so that no mask of the whole body is made."""
    parts = [np.empty(0, np.intp)]
    for start in range(0, len(raw), _CHUNK):
        chunk = raw[start:start + _CHUNK]
        hits = np.flatnonzero(np.equal(chunk, 10, out=mask[:len(chunk)]))
        hits += start + 1
        parts.append(hits)
    return np.concatenate(parts)


def _read_decimal(body, width: int, sep: str = "\t", block_lines: int = _BLOCK_LINES,
                  owner=_LOCAL) -> np.ndarray | None:
    """Exact vectorized parse of a take or CSV body, or None for anything outside its grammar.

    Every line holds exactly ``width`` fields ``[+-]digits[.digits][(e|E)[+-]digits]``
    (at least one mantissa digit) separated by ``sep`` (a tab or a comma)
    and ends with ``\\n``; the last line's ``\\n`` may be missing.
    Any other byte or shape (CR, blank lines, spaces, the other separator,
    ``nan``, ``1_000``, empty fields, short rows, a second dot or exponent)
    returns None.

    ``body`` is ``bytes`` or a ``memoryview`` and is read in place: the
    separator is classified by table, so no byte of the body is rewritten.
    It is parsed ``block_lines`` lines at a time (256 for takes) with numpy
    array operations, which release the GIL, so threads parse takes in
    parallel. Each block is copied into ``owner``'s workspace
    (``_Workspace``), which holds every block-sized array and is reused
    across blocks; the default owner is the thread's ``_LOCAL``, which keeps
    it across takes too. Each value equals ``float()`` of its field bit for
    bit:

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
    classes = _CLASS[sep]
    raw = np.frombuffer(body, np.uint8)
    ends = _line_ends(raw, _workspace(0, 0, owner).mask)
    if not len(raw) or raw[-1] != 10:
        ends = np.append(ends, len(raw))   # a last line without its newline
    cuts = np.r_[0, ends[block_lines - 1:-1:block_lines], ends[-1]].tolist()
    longest = max(end - start for start, end in zip(cuts, cuts[1:]))
    ws = _workspace(_PAD + longest + 1, min(len(ends), block_lines) * width, owner)
    out = np.empty(len(ends) * width)
    for first, start, end in zip(range(0, len(ends), block_lines), cuts, cuts[1:]):
        nlines = min(block_lines, len(ends) - first)
        size = _PAD + end - start
        ws.buf[_PAD:size] = raw[start:end]
        if ws.buf[size - 1] != 10:             # reads like the same line with its newline
            ws.buf[size] = 10
            size += 1
        if not _read_block(ws, size, nlines, width,
                           out[first * width:(first + nlines) * width], classes):
            return None
    return out.reshape(len(ends), width)


def _parse_fast(raw: bytes) -> np.ndarray | None:
    """The samples from the exact vectorized reader, or None to defer to the scan.

    Only a result the line scan would give bit for bit is returned: no
    header or the bytes of a bare ``#MARKERS`` or ``TAKE_HEADER`` line, then
    at least 2 rows, every sample finite. Everything else (another header,
    checked before the body; a CR, blank lines, spaces, ``1_000``, bad rows)
    and every take on a platform whose long double is too narrow
    (``_EXACT_LONGDOUBLE``) is left to ``_scan_take``, which accepts or
    rejects it with file and line context. The body is read in place.
    """
    if not _EXACT_LONGDOUBLE:
        return None
    start = 0
    if raw.startswith(b"#MARKERS"):
        start = raw.find(b"\n") + 1
        if not start or raw[:start - 1] not in _HEADERS:
            return None   # no body, another header, or a CR line end
    data = _read_decimal(memoryview(raw)[start:], TAKE_WIDTH)
    if data is None or data.shape[0] < 2 or not np.isfinite(data).all():
        return None
    return data


def read_exact_csv(raw: bytes) -> np.ndarray | None:
    """The rows of a comma-separated ``raw`` from the exact vectorized
    reader, or None to defer to ``scan_table``.

    Only a result the scan would give bit for bit is returned: every line
    holds as many fields as the first, in the reader's grammar, and every
    value is finite. Everything else (CR line ends, blank lines, spaces,
    ``1_000``, ``nan``, ``#``, short rows, an overflow, an empty file) and
    every file on a platform whose long double is too narrow
    (``_EXACT_LONGDOUBLE``) is left to the scan, which accepts it or names
    the file and line at fault. The body is read in place, ``_CSV_BLOCK_LINES``
    lines at a time, in a workspace of the call's own that is unmapped on
    return: the calling thread holds no more memory after it than before.
    """
    if not _EXACT_LONGDOUBLE:
        return None
    first_end = raw.find(b"\n")
    width = raw.count(b",", 0, len(raw) if first_end < 0 else first_end) + 1
    data = _read_decimal(raw, width, ",", _CSV_BLOCK_LINES, SimpleNamespace())
    if data is None or not np.isfinite(data).all():
        return None
    return data


def _lines(raw: bytes) -> Iterator[tuple[int, bytes]]:
    """``(lineno, line)`` for each line of ``raw``, counted from 1; lines end
    at ``\\n``, ``\\r\\n`` or ``\\r``. Lines are sliced one at a time."""
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start, lineno = 0, 1
    while start < len(raw):
        end = raw.find(b"\n", start)
        if end < 0:
            end = len(raw)
        yield lineno, raw[start:end]
        start, lineno = end + 1, lineno + 1


def scan_table(path: str | Path, raw: bytes, sep: str, width: Callable[[int, str], int | None],
               error: type[ValueError] = ValueError) -> np.ndarray:
    """Rows of ``sep``-separated numbers, one per nonblank line of ``raw``,
    or ``error`` naming the file and the first bad line.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, and nothing is a comment.
    ``width(lineno, line)`` is called on nonblank lines until it returns
    the field count of every row from that line on; a line it returns None
    for is a header. A field is an ASCII decimal that ``float()`` reads,
    with any whitespace around it. The first line that is not UTF-8, has
    the wrong width, or holds a field that does not parse or is not finite
    raises ``error`` naming the file, the line and the fault: the field
    count, or the first such field and its 1-based column.

    Takes and feature CSVs come here for what the exact reader
    (``_read_decimal``) declines; on every body the reader accepts, the
    scan gives the same values bit for bit.
    """
    rows: list[np.ndarray] = []
    expected = None
    for lineno, line in _lines(raw):
        if not line:
            continue
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not valid UTF-8 on line {lineno} ({exc})") from None
        if expected is None:
            expected = width(lineno, line)
            if expected is None:
                continue
        fields = line.split(sep)
        if len(fields) != expected:
            raise error(f"{path}:{lineno}: column count mismatch "
                        f"({len(fields)} fields, expected {expected})")
        try:
            # float() also reads "_" between digits and non-ASCII digits
            row = np.array(fields, dtype=float) if line.isascii() and "_" not in line else None
        except ValueError:
            row = None
        if row is None or not np.isfinite(row).all():
            for column, field in enumerate(fields, start=1):
                try:
                    value = float(field)
                except ValueError:
                    value = None
                if value is None or not field.strip().isascii() or "_" in field:
                    raise error(f"{path}:{lineno}: unparseable value {field!r} "
                                f"in column {column}")
                if not math.isfinite(value):
                    raise error(f"{path}:{lineno}: non-finite value {field!r} "
                                f"in column {column}")
            row = np.array(fields, dtype=float)
        rows.append(row)
    # no rows reads as shape (0, 1), as np.loadtxt(ndmin=2) reads them
    return np.array(rows).reshape(len(rows), expected or 1)


def _scan_take(path: Path, raw: bytes) -> np.ndarray:
    """``scan_table`` on a take. A line 1 whose first field is ``#MARKERS``
    and that is neither a bare ``#MARKERS`` nor ``TAKE_HEADER`` fails before
    the body is read, naming the first label out of place."""
    def width(lineno: int, line: str) -> int | None:
        fields = line.split("\t")
        if lineno > 1 or fields[0] != "#MARKERS":
            return TAKE_WIDTH
        if line not in ("#MARKERS", TAKE_HEADER):
            pairs = zip_longest(fields[1:], MARKER_LABELS)
            i, pair = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
            got, want = ("no label" if label is None else repr(label) for label in pair)
            raise TakeFormatError(f"{path}:1: marker {i + 1} is {got}, expected {want} (a header "
                                  f"is a bare #MARKERS or the 21 standard labels in order)")
        return None

    data = scan_table(path, raw, "\t", width, TakeFormatError)
    if len(data) < 2:
        raise TakeFormatError(f"{path}: fewer than 2 frames")
    return data


def load_take(path: str | Path, metadata=None, *, raw: bytes | None = None) -> MarkerTake:
    """Read a tab-separated take file plus its metadata sidecar.

    The file may start with a bare ``#MARKERS`` line or ``TAKE_HEADER`` (the
    labels of ``MARKER_LABELS`` in order), checked before the body; every
    other line holds 63 decimal numbers (mm). ``metadata`` is a mapping
    supplying frame_rate, participant_id and stimulus_id; by default the
    file's ``.json`` sibling is used. The sidecar is checked
    (``parse_sidecar``) before the body is parsed. ``raw`` is the file's
    bytes when the caller has already read them; otherwise the file is read
    once here.

    The body is parsed by an exact vectorized reader that releases the GIL.
    What it declines, and every take where the long double is too narrow
    for it, goes through a line scan, which accepts what it can and
    otherwise raises TakeFormatError with file and line context on
    malformed rows, non-finite cells or fewer than 2 frames. Invalid
    UTF-8, a sidecar that is not a JSON object and a frame rate that is
    not a finite number > 0 raise TakeFormatError naming the file.
    """
    path = Path(path)
    side = read_sidecar(path, metadata)
    if raw is None:
        raw = path.read_bytes()
    data = _parse_fast(raw)
    if data is None:
        data = _scan_take(path, raw)
    return MarkerTake(
        data=data,
        frame_rate=side["frame_rate"],
        participant_id=str(side.get("participant_id", "")),
        stimulus_id=str(side.get("stimulus_id", "")),
    )


def derive_joints(take: MarkerTake) -> np.ndarray:
    """Derive the 20-joint position trajectories (mm) from a 21-marker take.

    Returns frames x 60, joint-major: column i belongs to joint i // 3 and
    coordinate i % 3 (0=X, 1=Y, 2=Z). The markers are read by position, in
    ``MARKER_LABELS`` order, the one order a take may have.

    Single-source joints copy the marker columns bit for bit; multi-source
    joints take the per-frame, per-coordinate arithmetic mean.
    """
    out = np.empty((take.frames, 60), dtype=float)
    for jidx, (_, sources) in enumerate(DEFAULT_JOINT_RECIPES):
        cols = out[:, 3 * jidx:3 * jidx + 3]
        if len(sources) == 1:
            m = sources[0]
            cols[:] = take.data[:, 3 * m:3 * m + 3]
        else:
            stack = np.stack([take.data[:, 3 * m:3 * m + 3] for m in sources])
            cols[:] = stack.mean(axis=0)
    return out


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


def check_velocity_rate(frame_rate: float, cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> None:
    """Raise ValueError unless ``frame_rate`` exceeds twice ``cutoff_hz``, as
    ``velocity``'s low-pass filter needs."""
    if frame_rate <= 2 * cutoff_hz:
        raise ValueError(
            f"frame rate {frame_rate} Hz must exceed twice the cutoff ({cutoff_hz} Hz)"
        )


def velocity(positions: np.ndarray, frame_rate: float,
             cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> np.ndarray:
    """Estimate joint velocities (mm/s) from frames x columns positions (mm).

    Differentiates each column and then applies the zero-phase 2nd-order
    Butterworth low-pass at ``cutoff_hz``. Requires at least 7 frames for
    the filter warm-up and a frame rate above twice the cutoff.
    """
    if len(positions) < 7:
        raise ValueError(
            f"velocity needs at least 7 frames for filter warm-up, got {len(positions)}"
        )
    check_velocity_rate(frame_rate, cutoff_hz)
    b, a = butter_lowpass(cutoff_hz, frame_rate)
    return zero_phase_filter(differentiate(positions, frame_rate), b, a)
