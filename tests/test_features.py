import json
import math
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from movetrait import mocap
from movetrait.features import (
    apply_gaussian_stats,
    extract_features,
    gaussian_stats,
    load_feature_matrix,
    load_feature_rows,
    lower_triangle_indices,
    pairwise_correntropy,
    save_feature_matrix,
    vectorize_lower,
)
from movetrait.mocap import derive_joints, read_exact_csv, scan_table, velocity
from movetrait.synth import default_strong_spec, generate_take, sample_traits
from oracles import correntropy, load_feature_csv_text, unvectorize_lower


class TestCorrentropy:
    def test_identical_series(self):
        x = np.array([3.0, -1.0, 4.5])
        assert correntropy(x, x) == 1.0

    def test_hand_value_single_sample(self):
        # ||d||^2 = 288, 2 sigma^2 T^2 = 288 -> e^-1
        got = correntropy(np.array([0.0]), np.array([12.0 * math.sqrt(2.0)]), sigma=12.0)
        assert got == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_hand_value_two_samples(self):
        # ||d||^2 = 576, 2 sigma^2 T^2 = 1152 -> e^-0.5
        got = correntropy(np.array([0.0, 0.0]), np.array([24.0, 0.0]), sigma=12.0)
        assert got == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            correntropy(np.zeros(3), np.zeros(4))

    def test_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            correntropy(np.zeros(3), np.zeros(3), sigma=0.0)

    def test_strictly_decreasing_in_distance(self):
        x = np.zeros(4)
        values = [correntropy(x, np.full(4, d)) for d in (0.5, 1.0, 2.0, 5.0, 50.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_frame_duplication_square_root_relation(self):
        # doubling T doubles ||d||^2 but quadruples the normalizer
        rng = np.random.default_rng(5)
        x = rng.normal(0, 10, 7)
        y = rng.normal(0, 10, 7)
        single = correntropy(x, y)
        doubled = correntropy(np.repeat(x, 2), np.repeat(y, 2))
        assert doubled == pytest.approx(math.sqrt(single), abs=1e-12)


def offset_draws(frames, count):
    """Columns far apart (offsets up to 2 m) that move little around them.

    A kernel that shifts all columns by one shared mean misses the scalar
    formula by more than 1e-12 on a few short draws (among these, some of
    the 2-frame ones), so each case holds several.
    """
    draws = []
    for seed in range(count):
        rng = np.random.default_rng([frames, seed])
        draws.append(rng.uniform(-2000, 2000, size=60) + rng.normal(0, 50, size=(frames, 60)))
    return draws


def strong_spec_take(kind):
    spec = default_strong_spec(participants=1, stimuli=1, frames=4200, seed=5)
    joints = derive_joints(generate_take(spec, sample_traits(spec)["P000"], 0, 0))
    return [joints if kind == "position" else velocity(joints, spec.frame_rate)]


ORACLE_INPUTS = {
    "normal-5x8": lambda: [np.random.default_rng(3).normal(0, 40, size=(5, 8))],
    "offset-2x60": lambda: offset_draws(2, 16),
    "offset-3x60": lambda: offset_draws(3, 16),
    "offset-10x60": lambda: offset_draws(10, 4),
    "position-4200x60": lambda: strong_spec_take("position"),
    "velocity-4200x60": lambda: strong_spec_take("velocity"),
}


class TestCorrentropyMatrix:
    def test_identical_columns_give_all_ones(self):
        data = np.tile(np.arange(5.0)[:, None], (1, 60))
        k = pairwise_correntropy(data)
        np.testing.assert_array_equal(k, np.ones((60, 60)))

    def test_exact_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(0)
        k = pairwise_correntropy(rng.normal(0, 50, size=(9, 12)))
        np.testing.assert_array_equal(k, k.T)
        np.testing.assert_array_equal(np.diag(k), np.ones(12))

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_matches_scalar_oracle(self, name):
        for data in ORACLE_INPUTS[name]():
            d = data.shape[1]
            k = pairwise_correntropy(data, sigma=12.0)
            expected = np.array([
                [correntropy(data[:, i], data[:, j], sigma=12.0) for j in range(d)]
                for i in range(d)
            ])
            np.testing.assert_allclose(k, expected, rtol=0, atol=1e-12)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(11)
        k = pairwise_correntropy(rng.normal(0, 200, size=(30, 10)))
        assert (k > 0).all() and (k <= 1).all()


class TestVectorize:
    def test_standard_dim_gives_1770(self):
        data = np.random.default_rng(2).normal(0, 30, size=(6, 60))
        vec = vectorize_lower(pairwise_correntropy(data))
        assert vec.shape == (1770,)

    def test_reduced_dim_walk_order(self):
        m = np.array([
            [1.0, 0.1, 0.2],
            [0.1, 1.0, 0.3],
            [0.2, 0.3, 1.0],
        ])
        np.testing.assert_array_equal(vectorize_lower(m), [0.1, 0.2, 0.3])

    def test_all_ones_matrix(self):
        np.testing.assert_array_equal(vectorize_lower(np.ones((4, 4))), np.ones(6))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(9)
        k = pairwise_correntropy(rng.normal(0, 25, size=(7, 15)))
        vec = vectorize_lower(k)
        np.testing.assert_array_equal(unvectorize_lower(vec, 15), k)

    def test_unvectorize_length_check(self):
        with pytest.raises(ValueError, match="expected"):
            unvectorize_lower(np.zeros(5), 4)

    def test_permutation_consistency(self):
        # permuting columns permutes K rows/cols identically
        rng = np.random.default_rng(31)
        data = rng.normal(0, 20, size=(6, 9))
        k = pairwise_correntropy(data)
        for _ in range(5):
            perm = rng.permutation(9)
            kp = pairwise_correntropy(data[:, perm])
            np.testing.assert_allclose(kp, k[np.ix_(perm, perm)], atol=1e-15)
            vec = vectorize_lower(kp)
            rows, cols = lower_triangle_indices(9)
            expected = k[perm[rows], perm[cols]]
            np.testing.assert_allclose(vec, expected, atol=1e-15)


class TestGaussianNormalize:
    def standardize(self, values):
        values = np.asarray(values, dtype=float)
        return apply_gaussian_stats(values, *gaussian_stats(values))

    def test_hand_example(self):
        out = self.standardize([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(
            out[:, 0], [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-9
        )

    def test_zero_variance_column_maps_to_zero(self):
        out = self.standardize([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        np.testing.assert_array_equal(out[:, 0], np.zeros(3))

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(8)
        once = self.standardize(rng.normal(size=(20, 6)))
        np.testing.assert_allclose(self.standardize(once), once, atol=1e-9)

    def test_columns_standardized(self):
        rng = np.random.default_rng(12)
        values = rng.normal(3, 7, size=(50, 4))
        mu, sigma = gaussian_stats(values)
        assert mu.shape == (4,) and sigma.shape == (4,)
        out = apply_gaussian_stats(values, mu, sigma)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            gaussian_stats(np.array([[1.0, 2.0]]))

    def test_stats_apply_to_held_out_rows(self):
        rng = np.random.default_rng(4)
        train = rng.normal(10, 3, size=(30, 5))
        held = rng.normal(10, 3, size=(4, 5))
        mu, sigma = gaussian_stats(train)
        out = apply_gaussian_stats(held, mu, sigma)
        np.testing.assert_allclose(out, (held - mu) / sigma, atol=1e-12)


class TestExtractAndPersistence:
    def test_extract_is_kernel_lower_triangle(self):
        data = np.random.default_rng(0).normal(0, 30, size=(5, 60))
        vec = extract_features(data, sigma=7.0)
        assert vec.shape == (1770,)
        assert vec.tobytes() == vectorize_lower(pairwise_correntropy(data, 7.0)).tobytes()

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        values = np.stack([extract_features(rng.normal(0, 30, size=(5, 60))) for _ in range(3)])
        rows = tuple((f"P{i}", "S1") for i in range(3))
        path = tmp_path / "features.csv"
        save_feature_matrix(values, path, rows)
        np.testing.assert_array_equal(load_feature_matrix(path), values)
        assert load_feature_rows(path) == rows

    def test_older_sidecar_normalization_keys_ignored(self, tmp_path):
        rows = tuple((f"P{i}", "S1") for i in range(2))
        values = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "features.csv"
        save_feature_matrix(values, path, rows)
        sidecar = tmp_path / "features.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        assert set(meta) == {"rows"}
        meta.update(normalized=True, mu=[0.0, 0.0, 0.0], sigma=[1.0, 1.0, 1.0])
        sidecar.write_text(json.dumps(meta))
        np.testing.assert_array_equal(load_feature_matrix(path), values)
        assert load_feature_rows(path) == rows

    def test_older_sidecar_kind_ignored(self, tmp_path):
        rows = tuple((f"P{i}", "S1") for i in range(2))
        values = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "features.csv"
        save_feature_matrix(values, path, rows)
        sidecar = tmp_path / "features.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        assert all(set(r) == {"participant_id", "stimulus_id"} for r in meta["rows"])
        for r in meta["rows"]:
            r["kind"] = "velocity"
        sidecar.write_text(json.dumps(meta))
        assert load_feature_rows(path) == rows
        np.testing.assert_array_equal(load_feature_matrix(path), values)

    def test_row_metadata_length_enforced(self, tmp_path):
        path = tmp_path / "features.csv"
        save_feature_matrix(np.zeros((2, 3)), path, [("P0", "S"), ("P1", "S")])
        with pytest.raises(ValueError) as got:
            load_feature_matrix(path, (("P", "S"),))
        assert str(got.value) == f"{path}: row metadata length 1 != row count 2"


def _csv(rows, sep="\n", end="\n"):
    return (sep.join(",".join(row) for row in rows) + end).encode()


_CELLS = [["%.17g" % v for v in row]
          for row in np.random.default_rng(8).uniform(0, 1, size=(4, 5)).tolist()]


def _with(line, column, cell):
    """``_CELLS`` with the cell at 1-based ``line`` and ``column`` replaced."""
    rows = [list(row) for row in _CELLS]
    rows[line - 1][column - 1] = cell
    return rows


# (id, file bytes, None when the file loads to the text-mode loadtxt's bits,
# else the message right after the path)
FEATURE_CSV_CASES = [
    ("lf", _csv(_CELLS), None),
    ("crlf", _csv(_CELLS, sep="\r\n", end="\r\n"), None),
    ("lone-cr", _csv(_CELLS, sep="\r", end="\r"), None),
    ("blank-lines", b"\n" + _csv(_CELLS, sep="\n\n", end="\n\n"), None),
    ("crlf-blank-lines", _csv(_CELLS, sep="\r\n\r\n", end="\r\n"), None),
    ("no-final-newline", _csv(_CELLS, end=""), None),
    ("lone-cr-no-final-newline", _csv(_CELLS, sep="\r", end=""), None),
    ("spaces", _csv(_with(2, 3, "  0.25 ")), None),
    ("no-break-space", _csv(_with(2, 3, "\xa00.25")), None),
    ("hash-in-cell", _csv(_with(3, 5, "0.04#1034290714259722")),
     ":3: unparseable value '0.04#1034290714259722' in column 5"),
    ("hash-line", _csv(_CELLS[:2] + [["# note"]] + _CELLS[2:]),
     ":3: column count mismatch (1 fields, expected 5)"),
    ("nan", _csv(_with(2, 1, "nan")), ":2: non-finite value 'nan' in column 1"),
    ("inf-lone-cr", _csv(_with(4, 2, "-inf"), sep="\r"), ":4: non-finite value '-inf' in column 2"),
    ("overflow", _csv(_with(1, 4, "1e999")), ":1: non-finite value '1e999' in column 4"),
    ("short-row", _csv(_CELLS[:2] + [_CELLS[2][:4]] + _CELLS[3:]),
     ":3: column count mismatch (4 fields, expected 5)"),
    ("empty-cell", _csv(_with(4, 5, "")), ":4: unparseable value '' in column 5"),
    ("underscore", _csv(_with(2, 4, "1_000")), ":2: unparseable value '1_000' in column 4"),
    ("non-ascii-digit", _csv(_with(3, 1, "\uff11")), ":3: unparseable value '\uff11' in column 1"),
    ("non-ascii-digit-suffix", _csv(_with(1, 2, "2.5\uff11")),
     ":1: unparseable value '2.5\uff11' in column 2"),
    ("not-utf8", _csv(_with(2, 2, "0.5")).replace(b",0.5,", b",0.5\xff,"),
     ": not valid UTF-8 on line 2"),
    ("not-utf8-crlf", _csv(_CELLS, sep="\r\n") + b"\xe9\r\n", ": not valid UTF-8 on line 5"),
]


class TestFeatureCsvParse:
    """load_feature_matrix against the text-mode loadtxt loader it replaced."""

    @pytest.mark.parametrize("raw,message", [c[1:] for c in FEATURE_CSV_CASES],
                             ids=[c[0] for c in FEATURE_CSV_CASES])
    def test_matches_text_loader_or_names_line(self, tmp_path, raw, message):
        path = tmp_path / "features.csv"
        path.write_bytes(raw)
        rows = tuple((f"P{i}", "S1") for i in range(len(_CELLS)))
        if message is None:
            expected = load_feature_csv_text(raw)
            assert expected.shape == (4, 5)
            assert load_feature_matrix(path, rows).tobytes() == expected.tobytes()
            return
        with pytest.raises(ValueError) as got:
            load_feature_matrix(path, rows)
        assert str(got.value).startswith(f"{path}{message}")


# FEATURE_CSV_CASES that the exact reader takes; the line scan reads the rest
_EXACT_READER_CASES = {"lf", "no-final-newline"}


class TestFeatureReadTiers:
    """load_feature_matrix's exact reader against the line scan alone."""

    @pytest.mark.parametrize("case,raw", [c[:2] for c in FEATURE_CSV_CASES],
                             ids=[c[0] for c in FEATURE_CSV_CASES])
    def test_same_values_or_message_as_the_scan(self, tmp_path, case, raw):
        path = tmp_path / "features.csv"
        path.write_bytes(raw)
        rows = tuple((f"P{i}", "S1") for i in range(len(_CELLS)))
        assert (read_exact_csv(raw) is not None) == (case in _EXACT_READER_CASES)
        try:
            expected = scan_table(path, raw, ",", lambda lineno, line: line.count(",") + 1)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_feature_matrix(path, rows)
            assert str(got.value) == str(exc)
            return
        assert load_feature_matrix(path, rows).tobytes() == expected.tobytes()

    def test_narrow_long_double_takes_scan(self, tmp_path, monkeypatch):
        raw = _csv(_CELLS)
        expected = read_exact_csv(raw)
        monkeypatch.setattr(mocap, "_EXACT_LONGDOUBLE", False)
        monkeypatch.setattr(mocap, "_read_decimal", None)   # must not be called
        assert read_exact_csv(raw) is None
        path = tmp_path / "features.csv"
        path.write_bytes(raw)
        rows = tuple((f"P{i}", "S1") for i in range(len(_CELLS)))
        assert load_feature_matrix(path, rows).tobytes() == expected.tobytes()

    def test_load_leaves_no_workspace_on_the_thread(self, tmp_path, monkeypatch):
        """A 9 x 1770 file parses in blocks of 4, 4 and 1 lines, in a workspace
        that is gone when the load returns. A thread that had none still has
        none, and a thread's take workspace stays as it was."""
        values = np.random.default_rng(9).uniform(0, 1, size=(9, 1770))
        path = tmp_path / "features.csv"
        save_feature_matrix(values, path, [(f"P{i}", "S1") for i in range(9)])
        made, blocks = [], []
        read_block = mocap._read_block

        class Recorded(mocap._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        def spy(ws, size, nlines, *rest):
            blocks.append(nlines)
            return read_block(ws, size, nlines, *rest)

        def load(take_first):
            if take_first:
                mocap._read_decimal(b"1\t2\n", 2)
            before = getattr(mocap._LOCAL, "workspace", None)
            made.clear()
            blocks.clear()
            got = load_feature_matrix(path)
            return (got, before, getattr(mocap._LOCAL, "workspace", None),
                    len(made), [ref() for ref in made])

        monkeypatch.setattr(mocap, "_Workspace", Recorded)
        monkeypatch.setattr(mocap, "_read_block", spy)
        for take_first in (False, True):
            with ThreadPoolExecutor(1) as pool:
                got, before, after, count, alive = pool.submit(load, take_first).result(60)
            assert got.tobytes() == values.tobytes()
            assert blocks == [4, 4, 1]
            assert after is before and (before is None) != take_first
            assert count and alive == [None] * count
