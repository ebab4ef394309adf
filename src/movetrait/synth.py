"""Synthetic movement generator with planted trait-to-motion couplings.

Each participant receives uniformly drawn trait values; each trait drives
the oscillation amplitude (and relative phase) of a fixed set of markers,
affinely in the trait value, on top of a static skeleton template plus a
stimulus-level sway shared by everyone. Because the kernel features vary
smoothly with oscillation amplitude and phase, a planted trait is
recoverable by the downstream regressors, which makes the generator an
end-to-end oracle for the whole pipeline.

All randomness comes from streams derived from (seed, role, indices), so
generation is reproducible per participant and independent of scheduling.
"""
from __future__ import annotations

import concurrent.futures
import json
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from .mocap import MARKER_LABELS, MarkerTake
from .regression import TRAIT_NAMES

TRAIT_RANGES = {
    "O": (1.0, 5.0),
    "C": (1.0, 5.0),
    "E": (1.0, 5.0),
    "A": (1.0, 5.0),
    "N": (1.0, 5.0),
    "EQ": (0.0, 80.0),
    "SQ": (0.0, 80.0),
}

# Standing skeleton template, mm. Order matches MARKER_LABELS.
MARKER_TEMPLATE_MM = np.array([
    [-60.0, 80.0, 1700.0],    # LF head
    [60.0, 80.0, 1700.0],     # RF head
    [0.0, -90.0, 1690.0],     # B head
    [-190.0, 0.0, 1450.0],    # L shoulder
    [190.0, 0.0, 1450.0],     # R shoulder
    [0.0, 90.0, 1380.0],      # sternum
    [0.0, 110.0, 1100.0],     # stomach
    [-110.0, -110.0, 980.0],  # LB hip
    [110.0, -110.0, 980.0],   # RB hip
    [-260.0, 0.0, 1160.0],    # L elbow
    [260.0, 0.0, 1160.0],     # R elbow
    [-300.0, 40.0, 900.0],    # L wrist
    [300.0, 40.0, 900.0],     # R wrist
    [-310.0, 70.0, 810.0],    # L finger
    [310.0, 70.0, 810.0],     # R finger
    [-120.0, 30.0, 520.0],    # L knee
    [120.0, 30.0, 520.0],     # R knee
    [-130.0, -30.0, 100.0],   # L ankle
    [130.0, -30.0, 100.0],    # R ankle
    [-140.0, 130.0, 40.0],    # L toe
    [140.0, 130.0, 40.0],     # R toe
])

# per-coordinate share of a marker's oscillation amplitude
_AXIS_WEIGHTS = (1.0, 0.7, 0.4)
# fixed per-coordinate phase offsets so the three coordinates decorrelate
_AXIS_PHASES = (0.0, 1.1, 2.3)

_SWAY_AMPLITUDE_MM = 8.0

# RNG stream roles
_ROLE_TRAITS = 11
_ROLE_PHASES = 23
_ROLE_SWAY = 31
_ROLE_NOISE = 47


@dataclass(frozen=True)
class TraitCoupling:
    """How one trait shapes motion: which markers, how strongly, what rhythm."""

    markers: tuple[int, ...]
    frequency_hz: float
    amplitude_mm: tuple[float, float]  # at trait minimum / maximum
    phase_gain: float = 0.0            # relative phase per unit trait between listed markers

    def __post_init__(self):
        if any(m < 0 or m >= 21 for m in self.markers):
            raise ValueError("coupled marker index outside 0..20")
        if self.frequency_hz <= 0:
            raise ValueError("coupling frequency must be positive")


@dataclass(frozen=True)
class SynthSpec:
    participants: int
    stimuli: int
    frames: int
    frame_rate: float
    trait_coupling: dict[str, TraitCoupling] = field(default_factory=dict)
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.participants <= 0 or self.stimuli <= 0 or self.frames <= 0:
            raise ValueError("participants, stimuli and frames must be positive")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std cannot be negative")
        for trait, coupling in self.trait_coupling.items():
            if trait not in TRAIT_RANGES:
                raise ValueError(f"unknown trait {trait!r}")
            if coupling.frequency_hz >= self.frame_rate / 2:
                raise ValueError(
                    f"{trait} coupling frequency {coupling.frequency_hz} Hz is not "
                    f"below Nyquist ({self.frame_rate / 2} Hz)"
                )

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthSpec":
        doc = json.loads(Path(path).read_text())
        couplings = {
            trait: TraitCoupling(
                markers=tuple(c["markers"]),
                frequency_hz=float(c["frequency_hz"]),
                amplitude_mm=(float(c["amplitude_mm"][0]), float(c["amplitude_mm"][1])),
                phase_gain=float(c.get("phase_gain", 0.0)),
            )
            for trait, c in doc.get("trait_coupling", {}).items()
        }
        return cls(
            participants=int(doc["participants"]),
            stimuli=int(doc["stimuli"]),
            frames=int(doc["frames"]),
            frame_rate=float(doc["frame_rate"]),
            trait_coupling=couplings,
            noise_std=float(doc.get("noise_std", 0.0)),
            seed=int(doc.get("seed", 0)),
        )

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def participant_label(pidx: int) -> str:
    return f"P{pidx:03d}"


def stimulus_label(sidx: int) -> str:
    return f"S{sidx:02d}"


def planted_amplitude(coupling: TraitCoupling, trait: str, value: float) -> float:
    """Oscillation amplitude for one trait value; strictly increasing in it."""
    lo, hi = TRAIT_RANGES[trait]
    u = (value - lo) / (hi - lo)
    a0, a1 = coupling.amplitude_mm
    return a0 + u * (a1 - a0)


def sample_traits(spec: SynthSpec) -> dict[str, dict[str, float]]:
    """Uniform trait values per participant, from the (seed, traits) stream."""
    rng = np.random.default_rng([spec.seed, _ROLE_TRAITS])
    table: dict[str, dict[str, float]] = {}
    for pidx in range(spec.participants):
        row = {}
        for trait in TRAIT_NAMES:
            lo, hi = TRAIT_RANGES[trait]
            row[trait] = float(rng.uniform(lo, hi))
        table[participant_label(pidx)] = row
    return table


def _stimulus_phases(spec: SynthSpec, sidx: int) -> np.ndarray:
    # one base phase per marker, shared by every participant for a stimulus
    rng = np.random.default_rng([spec.seed, _ROLE_PHASES, sidx])
    return rng.uniform(0.0, 2.0 * np.pi, size=21)


def _stimulus_sway(spec: SynthSpec, sidx: int) -> tuple[float, np.ndarray]:
    rng = np.random.default_rng([spec.seed, _ROLE_SWAY, sidx])
    freq = float(rng.uniform(0.3, 0.7))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    return freq, phases


def generate_take(
    spec: SynthSpec,
    traits: dict[str, float],
    pidx: int,
    sidx: int,
) -> MarkerTake:
    """One participant's take for one stimulus.

    Trait-independent parts (template, sway, base phases) depend only on
    the stimulus, so participants with identical traits and zero noise move
    identically.
    """
    t = np.arange(spec.frames, dtype=float) / spec.frame_rate
    pos = np.tile(MARKER_TEMPLATE_MM.ravel(), (spec.frames, 1))

    sway_freq, sway_phases = _stimulus_sway(spec, sidx)
    sway = _SWAY_AMPLITUDE_MM * np.sin(
        2.0 * np.pi * sway_freq * t[:, None] + sway_phases[None, :]
    )
    pos += np.tile(sway, 21)

    base_phases = _stimulus_phases(spec, sidx)
    for trait, coupling in spec.trait_coupling.items():
        amp = planted_amplitude(coupling, trait, traits[trait])
        lo, hi = TRAIT_RANGES[trait]
        u = (traits[trait] - lo) / (hi - lo)
        omega = 2.0 * np.pi * coupling.frequency_hz
        for rank, m in enumerate(coupling.markers):
            phase = base_phases[m] + u * coupling.phase_gain * rank
            for c in range(3):
                pos[:, 3 * m + c] += (
                    amp
                    * _AXIS_WEIGHTS[c]
                    * np.sin(omega * t + phase + _AXIS_PHASES[c])
                )

    if spec.noise_std > 0:
        rng = np.random.default_rng([spec.seed, _ROLE_NOISE, pidx, sidx])
        pos += rng.normal(0.0, spec.noise_std, size=pos.shape)

    return MarkerTake(
        data=pos,
        frame_rate=spec.frame_rate,
        participant_id=participant_label(pidx),
        stimulus_id=stimulus_label(sidx),
        markers=MARKER_LABELS,
    )


def iter_takes(spec: SynthSpec, traits=None) -> Iterator[MarkerTake]:
    """Lazily yield all takes, participant-major; use for large specs."""
    traits = traits if traits is not None else sample_traits(spec)
    for pidx in range(spec.participants):
        row = traits[participant_label(pidx)]
        for sidx in range(spec.stimuli):
            yield generate_take(spec, row, pidx, sidx)


def generate(spec: SynthSpec) -> tuple[list[MarkerTake], dict[str, dict[str, float]]]:
    """All takes plus the trait table. Holds everything in memory; for
    desk-scale specs prefer iter_takes."""
    traits = sample_traits(spec)
    return list(iter_takes(spec, traits)), traits


def write_trait_table(traits: dict[str, dict[str, float]], path: str | Path) -> None:
    lines = ["participant_id," + ",".join(TRAIT_NAMES)]
    for pid in sorted(traits):
        lines.append(pid + "," + ",".join(f"{traits[pid][t]:.17g}" for t in TRAIT_NAMES))
    Path(path).write_text("\n".join(lines) + "\n")


# The %.17g take writer. 256 rows keep its temporaries at a few MB per pool
# worker, as in the take reader; its tables are built with numpy at import.
_BLOCK_ROWS = 256
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW5 = 5 ** np.arange(21, dtype=np.uint64)    # 5**k for k = 16 - X, X in -4..16
_SHIFTS = np.arange(64, dtype=np.uint64)
_LOW_BITS = (_U64(1) << _SHIFTS) - _U64(1)      # remainder mask of a right shift by s
# half of 2**s, against which the remainder (plus the quotient's parity) is
# compared; for s = 0 nothing may round, so 2**63, which no sum reaches
_HALF = np.r_[_U64(2**63), _U64(1) << _SHIFTS[:-1]]
_QUAD = np.arange(10000)
# _ASCII4[q]: the four digits of q, most significant in the low byte
_ASCII4 = sum((48 + _QUAD // 10 ** (3 - j) % 10).astype(np.uint64) << _U64(8 * j)
              for j in range(4))
# _ZEROS4[q]: trailing decimal zeros of q written with four digits
_ZEROS4 = np.select([_QUAD % 10 ** j == 0 for j in (4, 3, 2, 1)], [4, 3, 2, 1], 0)
_BYTE = np.arange(24)
# _KEEP[t]: the three little-endian words of a 24-byte field that keep its bytes 0..t-1
_KEEP = np.where(_BYTE < np.arange(25)[:, None], 255, 0).astype(np.uint8).view("<u8")
# _MARKS[21 * sign + X + 4]: the sign, the "0.000" prefix (X < 0) and the
# dot (X >= 0) of a field, the bytes its digits leave free
_SIGN = np.arange(2)[:, None, None]
_EXP10 = np.arange(-4, 17)[None, :, None]
_MARKS = np.select(
    [(_SIGN == 1) & (_BYTE == 0),
     _BYTE == _SIGN + np.maximum(_EXP10, 0) + 1,
     (_EXP10 < 0) & (_BYTE >= _SIGN) & (_BYTE <= _SIGN - _EXP10)],
    [ord("-"), ord("."), ord("0")], 0,
).astype(np.uint8).view("<u8").reshape(42, 3)


def _digits17(m: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """round_half_even(m * 2**e * 10**(16 - x)), exactly, for m < 2**53 and
    16 - x in 0..20.

    m * 5**k (k = 16 - x) is held in two words, since 5**20 < 2**47 makes
    it less than 2**100, and shifted right by s = -(e + k) bits, which is
    below 64 for the values the writer gives it (or shifted left by -s).
    """
    k = 16 - x
    p5 = np.take(_POW5, k)
    ml, mh = m & _LOW32, m >> _U64(32)
    pl, ph = p5 & _LOW32, p5 >> _U64(32)
    t = ml * pl
    u = (t >> _U64(32)) + ml * ph + mh * pl
    lo = (t & _LOW32) | (u << _U64(32))
    hi = mh * ph + (u >> _U64(32))
    s = -(e + k)
    right = np.maximum(s, 0).astype(np.uint64)
    left = np.maximum(-s, 0).astype(np.uint64)
    # hi << (64 - right) in two steps, so right = 0 shifts by 64 as zero
    d = ((lo >> right) | ((hi << (_U64(63) - right)) << _U64(1))) << left
    d += ((lo & np.take(_LOW_BITS, right)) + (d & _U64(1))) > np.take(_HALF, right)
    return d


def _shift_down(words: tuple, nbytes: np.ndarray) -> tuple:
    """A 24-byte field moved ``nbytes`` (1..7) bytes towards byte 0."""
    w0, w1, w2 = words
    down = nbytes * _U64(8)
    up = _U64(64) - down
    return (w0 >> down) | (w1 << up), (w1 >> down) | (w2 << up), w2 >> down


def _format_g17(data: np.ndarray) -> bytes:
    """The bytes of ``"\\t".join("%.17g" % v for v in row) + "\\n"`` for every
    row of a 2-D float64 array.

    Rows are formatted 256 at a time with numpy array operations. A value
    with 1e-4 <= |v| < 1e17 is written in fixed notation, as %g does for a
    decimal exponent X in -4..16:

    - Its 17 significant digits D are computed exactly (``_digits17``),
      rounded half to even as a correctly rounded printf does (Steele &
      White, "How to Print Floating-Point Numbers Accurately", PLDI 1990).
      X starts from ``floor(log10(|v|))``; where that is one off, or the
      rounding carried D to 10**17, D falls outside [10**16, 10**17) and is
      computed once more with X moved by one.
    - Each field is built in three little-endian uint64 words: 4-digit
      table lookups write the digits into bytes 7..23, two byte shifts
      move the digits before and after the dot into place, a table adds
      the sign, dot or "0.000" prefix, and a mask sets the bytes after the
      last kept digit (trailing zeros of the fraction, and a dot with no
      fraction after it) to null.
    - A fourth word holds the tab or newline, and one boolean compress of
      all bytes against 0 drops the nulls.

    Zero, |v| < 1e-4, |v| >= 1e17 and non-finite values are formatted by
    ``"%.17g" %`` and copied into their field (at most 24 bytes).
    """
    cols = data.shape[1]
    separators = np.full(cols, ord("\t"), np.uint64)
    separators[-1] = ord("\n")
    chunks = []
    for first in range(0, len(data), _BLOCK_ROWS):
        v = data[first:first + _BLOCK_ROWS].ravel()
        av = np.abs(v)
        fixed = (av >= 1e-4) & (av < 1e17)
        av = np.where(fixed, av, 1.0)   # the other fields are overwritten below
        bits = av.view(np.uint64)
        m = (bits & _U64(2**52 - 1)) | _U64(2**52)
        e = (bits >> _U64(52)).astype(np.int64) - 1075
        x = np.clip(np.floor(np.log10(av)).astype(np.int64), -4, 16)
        d = _digits17(m, e, x)
        off = (d >= _U64(10**17)).astype(np.int64) - (d < _U64(10**16))
        redo = np.flatnonzero(off)
        if len(redo):
            x[redo] += off[redo]
            d[redo] = _digits17(m[redo], e[redo], x[redo])

        top, low8 = np.divmod(d, _U64(10**8))
        lead, high8 = np.divmod(top, _U64(10**8))
        q1, q2 = np.divmod(high8, _U64(10**4))
        q3, q4 = np.divmod(low8, _U64(10**4))
        digits = ((lead + _U64(48)) << _U64(56),
                  np.take(_ASCII4, q1) | (np.take(_ASCII4, q2) << _U64(32)),
                  np.take(_ASCII4, q3) | (np.take(_ASCII4, q4) << _U64(32)))
        zeros = np.take(_ZEROS4, q4) + (q4 == 0) * (np.take(_ZEROS4, q3) + (q3 == 0) * (
            np.take(_ZEROS4, q2) + (q2 == 0) * np.take(_ZEROS4, q1)))

        sign = np.signbit(v).astype(np.int64)
        below_one = np.minimum(x, 0)
        dot = np.where(x >= 0, sign + x + 1, 0)   # 0: no digit goes before the mark bytes
        frac = 16 - x                              # fraction digits before trimming
        trim = np.minimum(zeros, frac)
        length = sign + 18 - below_one - trim - (trim == frac)
        # the digits start at byte `sign`, or after the dot or the "0.000" prefix
        head = _shift_down(digits, (7 - sign).astype(np.uint64))
        tail = _shift_down(digits, (6 - sign + below_one).astype(np.uint64))
        before, after = np.take(_KEEP, dot, axis=0), ~np.take(_KEEP, dot + 1, axis=0)
        keep = np.take(_KEEP, length, axis=0)
        marks = np.take(_MARKS, 21 * sign + x + 4, axis=0)
        out = np.empty((len(v), 4), "<u8")   # byte 0 of a field is its first character
        for i in range(3):
            out[:, i] = ((head[i] & before[:, i]) | (tail[i] & after[:, i])
                         | marks[:, i]) & keep[:, i]
        out[:, 3] = np.resize(separators, len(v))
        for i in np.flatnonzero(~fixed):
            out[i, :3] = np.frombuffer((b"%.17g" % v[i]).ljust(24, b"\0"), "<u8")
        raw = out.view(np.uint8).ravel()
        chunks.append(np.compress(raw != 0, raw).tobytes())
    return b"".join(chunks)


def _write_take(spec: SynthSpec, out_dir: Path, job: tuple[int, int, dict[str, float]]) -> None:
    """Generate one take and write its .tsv and .json; runs in a pool worker."""
    pidx, sidx, traits = job
    take = generate_take(spec, traits, pidx, sidx)
    stem = f"{take.participant_id}_{take.stimulus_id}"
    header = ("#MARKERS\t" + "\t".join(MARKER_LABELS) + "\n").encode()
    (out_dir / f"{stem}.tsv").write_bytes(header + _format_g17(take.data))
    sidecar = {
        "frame_rate": take.frame_rate,
        "participant_id": take.participant_id,
        "stimulus_id": take.stimulus_id,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def write_dataset(spec: SynthSpec, out_dir: str | Path) -> dict:
    """Materialize the dataset in the take TSV + sidecar format.

    Writes one <participant>_<stimulus>.tsv and .json pair per take, the
    trait table CSV, and a copy of the generating spec. Each take is
    generated, formatted and written in a pool of one process per available
    CPU (at most one per take), since formatting holds the GIL. Workers get
    the take's indices and trait values, never its arrays, and every random
    stream is keyed by those indices, so no byte depends on the pool size or
    on scheduling. A worker's error propagates: the takes not yet started
    are cancelled, and the pool is joined before this returns or raises.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traits = sample_traits(spec)
    jobs = [(pidx, sidx, traits[participant_label(pidx)])
            for pidx in range(spec.participants) for sidx in range(spec.stimuli)]
    # concurrent.futures loads its process pool (and multiprocessing) on first
    # use, so the pipeline stages that import this module do not pay for it
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        # map cancels the pending takes once one raises; leaving the block joins the workers
        for _ in pool.map(partial(_write_take, spec, out_dir), jobs):
            pass
    write_trait_table(traits, out_dir / "traits.csv")
    spec.to_json(out_dir / "synth_spec.json")
    return {"takes": len(jobs), "participants": spec.participants, "dir": out_dir}


# Markers that become single-copy joints; a trait coupled to these keeps its
# amplitude signal intact after skeleton derivation (markers collapsed into a
# multi-marker average can cancel when their relative phases shift).
_SINGLE_COPY_MARKERS = (3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)


def default_strong_spec(
    participants: int = 60,
    stimuli: int = 4,
    frames: int = 4200,
    frame_rate: float = 120.0,
    noise_std: float = 3.0,
    seed: int = 7,
) -> SynthSpec:
    """Spec with every trait strongly coupled to its own marker triple.

    Triples cycle through the single-copy markers; some sharing between
    traits is fine because each trait oscillates at its own frequency.
    """
    freqs = (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    pool = _SINGLE_COPY_MARKERS
    couplings = {}
    for ti, trait in enumerate(TRAIT_NAMES):
        couplings[trait] = TraitCoupling(
            markers=tuple(pool[(3 * ti + j) % len(pool)] for j in range(3)),
            frequency_hz=freqs[ti],
            amplitude_mm=(20.0, 140.0),
            phase_gain=0.8,
        )
    return SynthSpec(
        participants=participants,
        stimuli=stimuli,
        frames=frames,
        frame_rate=frame_rate,
        trait_coupling=couplings,
        noise_std=noise_std,
        seed=seed,
    )
