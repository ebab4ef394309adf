import hashlib
import multiprocessing
import os
import re

import numpy as np
import pytest

from movetrait.mocap import MARKER_LABELS, format_g17, load_take
from movetrait.regression import TRAIT_NAMES, load_trait_table
from movetrait.synth import (
    SynthSpec,
    TRAIT_RANGES,
    TraitCoupling,
    default_strong_spec,
    generate,
    iter_takes,
    planted_amplitude,
    sample_traits,
    write_dataset,
)

from oracles import write_dataset_serial


def small_spec(**kw):
    defaults = dict(participants=3, stimuli=2, frames=120, seed=5, noise_std=2.0)
    defaults.update(kw)
    return default_strong_spec(**defaults)


class TestSpecValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            SynthSpec(participants=0, stimuli=1, frames=10, frame_rate=120.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_std"):
            SynthSpec(participants=1, stimuli=1, frames=10, frame_rate=120.0, noise_std=-1.0)

    def test_rejects_frequency_at_nyquist(self):
        coupling = {"O": TraitCoupling(markers=(0,), frequency_hz=60.0, amplitude_mm=(1, 2))}
        with pytest.raises(ValueError, match="Nyquist"):
            SynthSpec(participants=1, stimuli=1, frames=10, frame_rate=120.0,
                      trait_coupling=coupling)

    def test_rejects_unknown_trait(self):
        coupling = {"X": TraitCoupling(markers=(0,), frequency_hz=1.0, amplitude_mm=(1, 2))}
        with pytest.raises(ValueError, match="unknown trait"):
            SynthSpec(participants=1, stimuli=1, frames=10, frame_rate=120.0,
                      trait_coupling=coupling)

    def test_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert SynthSpec.from_json(path) == spec


class TestTraits:
    def test_values_in_declared_ranges(self):
        traits = sample_traits(small_spec(participants=20))
        assert len(traits) == 20
        for row in traits.values():
            for trait, value in row.items():
                lo, hi = TRAIT_RANGES[trait]
                assert lo <= value <= hi

    def test_regeneration_consistent(self):
        spec = small_spec()
        t1 = sample_traits(spec)
        t2 = sample_traits(spec)
        assert t1 == t2

    def test_planted_amplitude_strictly_increasing(self):
        coupling = TraitCoupling(markers=(0,), frequency_hz=1.0, amplitude_mm=(10.0, 100.0))
        values = np.linspace(*TRAIT_RANGES["EQ"], 9)
        amps = [planted_amplitude(coupling, "EQ", v) for v in values]
        assert all(a < b for a, b in zip(amps, amps[1:]))


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = small_spec()
        takes1, traits1 = generate(spec)
        takes2, traits2 = generate(spec)
        assert traits1 == traits2
        for a, b in zip(takes1, takes2):
            np.testing.assert_array_equal(a.data, b.data)

    def test_take_count_and_metadata(self):
        spec = small_spec()
        takes, _ = generate(spec)
        assert len(takes) == 6
        assert takes[0].participant_id == "P000" and takes[0].stimulus_id == "S00"
        assert takes[1].stimulus_id == "S01"
        assert takes[0].frames == 120
        assert takes[0].data.shape == (120, 63)

    def test_no_coupling_no_noise_identical_across_participants(self):
        spec = SynthSpec(participants=4, stimuli=2, frames=60, frame_rate=120.0,
                         trait_coupling={}, noise_std=0.0, seed=9)
        takes, _ = generate(spec)
        ref_s0 = takes[0].data
        ref_s1 = takes[1].data
        for p in range(1, 4):
            np.testing.assert_array_equal(takes[2 * p].data, ref_s0)
            np.testing.assert_array_equal(takes[2 * p + 1].data, ref_s1)

    def test_coupling_varies_across_participants(self):
        takes, traits = generate(small_spec(noise_std=0.0))
        assert not np.array_equal(takes[0].data, takes[2].data)

    def test_iter_matches_generate(self):
        spec = small_spec()
        eager, traits = generate(spec)
        lazy = list(iter_takes(spec, traits))
        for a, b in zip(eager, lazy):
            np.testing.assert_array_equal(a.data, b.data)

    def test_higher_trait_moves_more(self):
        # same participant slot, manually forced low vs high trait value
        from movetrait.synth import generate_take
        spec = small_spec(noise_std=0.0)
        row = {t: (TRAIT_RANGES[t][0] + TRAIT_RANGES[t][1]) / 2 for t in TRAIT_NAMES}
        low = dict(row, EQ=TRAIT_RANGES["EQ"][0])
        high = dict(row, EQ=TRAIT_RANGES["EQ"][1])
        take_low = generate_take(spec, low, 0, 0)
        take_high = generate_take(spec, high, 0, 0)
        markers = spec.trait_coupling["EQ"].markers
        cols = [3 * m + c for m in markers for c in range(3)]
        var_low = take_low.data[:, cols].var(axis=0).sum()
        var_high = take_high.data[:, cols].var(axis=0).sum()
        assert var_high > var_low


class TestWriteDataset:
    def test_files_round_trip_through_loader(self, tmp_path):
        spec = small_spec(participants=2, stimuli=2, frames=30)
        info = write_dataset(spec, tmp_path)
        assert info["takes"] == 4
        tsvs = sorted(tmp_path.glob("*.tsv"))
        assert len(tsvs) == 4
        take = load_take(tsvs[0])
        assert take.frames == 30
        assert take.frame_rate == spec.frame_rate
        assert take.participant_id == "P000"
        takes, _ = generate(spec)
        # %.17g round-trips every double
        np.testing.assert_array_equal(take.data, takes[0].data)

    def test_trait_table_written(self, tmp_path):
        spec = small_spec(participants=2, stimuli=1, frames=30)
        write_dataset(spec, tmp_path)
        table = load_trait_table(tmp_path / "traits.csv")
        expected = sample_traits(spec)
        assert set(table) == set(expected)
        for pid in table:
            for trait in TRAIT_NAMES:
                assert table[pid][trait] == pytest.approx(expected[pid][trait], rel=1e-15)

    def test_spec_copy_written(self, tmp_path):
        spec = small_spec(participants=1, stimuli=1, frames=30)
        write_dataset(spec, tmp_path)
        assert SynthSpec.from_json(tmp_path / "synth_spec.json") == spec

    def test_tsv_bytes_match_per_value_formatting(self, tmp_path):
        # reference: the per-value f-string formatting the writer used before
        # it formatted whole rows with one %-format
        spec = small_spec(participants=2, stimuli=2, frames=40)
        write_dataset(spec, tmp_path)
        header = "#MARKERS\t" + "\t".join(MARKER_LABELS)
        for take in iter_takes(spec):
            rows = [header]
            rows.extend("\t".join(f"{v:.17g}" for v in frame) for frame in take.data)
            expected = ("\n".join(rows) + "\n").encode()
            path = tmp_path / f"{take.participant_id}_{take.stimulus_id}.tsv"
            assert path.read_bytes() == expected


def _format_case(name):
    """A 2-D float64 block; the 1-D cases become one column, with both signs."""
    rng = np.random.default_rng(19)
    if name == "random":
        signs = rng.choice([-1.0, 1.0], 300_000)
        return (signs * 10.0 ** rng.uniform(-320, 300, 300_000)).reshape(3000, 100)
    if name == "random_fixed":
        # the fixed-notation range, with rounded decimals and dyadic fractions
        rng = np.random.default_rng(20)
        spread = 10.0 ** rng.uniform(-5, 18, 100_000)
        decimals = rng.integers(-2 * 10**9, 2 * 10**9, 50_000) / 10.0 ** rng.integers(0, 7, 50_000)
        dyadic = rng.integers(-2**40, 2**40, 50_000) / 2.0 ** rng.integers(0, 40, 50_000)
        return np.r_[spread, -spread, decimals, dyadic].reshape(-1, 50)
    if name == "one_value":
        return np.array([[-1234.5]])
    if name == "model_row":
        # one row as wide as a model file's weights, down to values below 1e-4
        return (rng.normal(size=1770) * 10.0 ** rng.uniform(-8, 2, 1770))[None, :]
    special = np.array([0.0, -0.0, 1e-5, 9.9999999999999991e-05, 5e-324, 1e17, -1e300,
                        np.nan, np.inf, -np.inf])
    if name == "fallback_only":
        return rng.permutation(np.resize(special, 120)).reshape(12, 10)
    if name == "mixed":
        # fixed-notation values with every fallback kind scattered among them
        fixed = rng.choice([-1.0, 1.0], 590) * 10.0 ** rng.uniform(-4, 17, 590)
        return rng.permutation(np.r_[fixed, special]).reshape(40, 15)
    fixed_powers = np.array([float(f"1e{n}") for n in range(-4, 18)])
    # float("1e-14") lies below 10**-14 and its 17th digit rounds up to "1e-14"
    all_powers = np.array([float(f"1e{n}") for n in range(-323, 309)])
    # exact ties at the 18th significant digit, rounded half to even
    ties = np.r_[1e14 + np.arange(1, 80, 2) / 8, 1e15 + np.arange(1, 80, 2) / 4]
    values = {
        "zeros": [0.0],
        "subnormals": [5e-324, 1.5e-310, 2.2250738585072009e-308],
        "near_1e-4": [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 9.9999999999999995e-05],
        "powers_of_ten": np.r_[fixed_powers, np.nextafter(fixed_powers, 0),
                               np.nextafter(fixed_powers, np.inf)],
        "round_up_to_power": np.r_[all_powers, np.nextafter(all_powers, 0)],
        "dyadic_ties": np.r_[ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)],
        "non_finite": [np.nan, np.inf],
    }[name]
    values = np.asarray(values, dtype=float)
    return np.r_[values, -values][:, None]


@pytest.mark.parametrize("case", ["random", "random_fixed", "zeros", "subnormals", "near_1e-4",
                                  "powers_of_ten", "round_up_to_power", "dyadic_ties",
                                  "non_finite", "one_value", "model_row", "mixed",
                                  "fallback_only"])
def test_format_g17_matches_percent_format(case):
    data = _format_case(case)
    for sep in "\t,":   # takes and model files
        expected = "".join(sep.join("%.17g" % v for v in row) + "\n" for row in data.tolist())
        assert format_g17(data, sep) == expected.encode()


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


class TestPooledWriter:
    @pytest.mark.parametrize("cpus", [None, 1, 5])
    def test_bytes_match_serial_oracle(self, tmp_path, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        spec = small_spec(participants=3, stimuli=3, frames=50, noise_std=2.0)
        info = write_dataset(spec, tmp_path / "pool")
        write_dataset_serial(spec, tmp_path / "serial")
        assert info["takes"] == 9
        pooled = _digests(tmp_path / "pool")
        assert len(pooled) == 2 * 9 + 2
        assert pooled == _digests(tmp_path / "serial")
        assert not multiprocessing.active_children()

    def test_worker_error_propagates_and_pool_is_joined(self, tmp_path):
        blocked = tmp_path / "P002_S00.tsv"
        blocked.mkdir()
        with pytest.raises(OSError, match=re.escape(str(blocked))):
            write_dataset(small_spec(participants=4, stimuli=1, frames=30), tmp_path)
        assert not multiprocessing.active_children()
        assert not (tmp_path / "traits.csv").exists()
