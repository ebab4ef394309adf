import numpy as np
import pytest

from movetrait.mocap import MARKER_LABELS, load_take
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
        assert takes[0].conformant

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
        np.testing.assert_allclose(take.data, takes[0].data, atol=1e-12)

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
