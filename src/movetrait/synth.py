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

import json
from dataclasses import dataclass, field
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
        doc = {
            "participants": self.participants,
            "stimuli": self.stimuli,
            "frames": self.frames,
            "frame_rate": self.frame_rate,
            "noise_std": self.noise_std,
            "seed": self.seed,
            "trait_coupling": {
                trait: {
                    "markers": list(c.markers),
                    "frequency_hz": c.frequency_hz,
                    "amplitude_mm": list(c.amplitude_mm),
                    "phase_gain": c.phase_gain,
                }
                for trait, c in self.trait_coupling.items()
            },
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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


def write_dataset(spec: SynthSpec, out_dir: str | Path) -> dict:
    """Materialize the dataset in the take TSV + sidecar format.

    Writes one <participant>_<stimulus>.tsv and .json pair per take, the
    trait table CSV, and a copy of the generating spec.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traits = sample_traits(spec)
    header = "#MARKERS\t" + "\t".join(MARKER_LABELS)
    n_takes = 0
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
        n_takes += 1
    write_trait_table(traits, out_dir / "traits.csv")
    spec.to_json(out_dir / "synth_spec.json")
    return {"takes": n_takes, "participants": spec.participants, "dir": out_dir}


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
