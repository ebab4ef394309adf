import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from movetrait.features import lower_triangle_indices
from movetrait.importance import (
    FEATURE_DIM,
    GROUP_MEMBERS,
    GROUP_NAMES,
    importance_from_model,
    importance_report,
    joint_importance,
    minmax_normalize,
    radar_svg,
    reduce_to_groups,
)
from movetrait.mocap import JOINT_LABELS
from movetrait.regression import centered_svd, fit_bayes_ridge, fit_pcr

from test_regression import reference_pcr


def brute_force_importance(weights):
    # independent accumulation over the full 60x60 strict lower triangle
    out = np.zeros(20)
    k = 0
    for i in range(1, 60):
        for j in range(i):
            out[i // 3] += abs(weights[k])
            out[j // 3] += abs(weights[k])
            k += 1
    assert k == FEATURE_DIM
    return out


class TestJointImportance:
    def test_zero_weights(self):
        np.testing.assert_array_equal(joint_importance(np.zeros(FEATURE_DIM)), np.zeros(20))

    def test_single_nonzero_entry(self):
        # cell (i=3, j=0) is the fourth entry of the walk
        w = np.zeros(FEATURE_DIM)
        w[3] = -2.5
        out = joint_importance(w)
        expected = np.zeros(20)
        expected[1] += 2.5  # joint of coordinate 3
        expected[0] += 2.5  # joint of coordinate 0
        np.testing.assert_array_equal(out, expected)

    def test_same_joint_pair_credits_twice(self):
        # cell (1, 0): both coordinates belong to joint 0
        w = np.zeros(FEATURE_DIM)
        w[0] = 1.5
        out = joint_importance(w)
        assert out[0] == 3.0
        assert out[1:].sum() == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.normal(size=FEATURE_DIM)
            np.testing.assert_allclose(
                joint_importance(w), brute_force_importance(w), atol=1e-12
            )

    def test_conservation(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = rng.normal(size=FEATURE_DIM)
            total = joint_importance(w).sum()
            assert total == pytest.approx(2.0 * np.abs(w).sum(), rel=1e-12)

    def test_walk_is_bijection_onto_lower_triangle(self):
        rows, cols = lower_triangle_indices(60)
        assert len(rows) == FEATURE_DIM
        cells = set(zip(rows.tolist(), cols.tolist()))
        assert len(cells) == FEATURE_DIM
        assert all(i > j for i, j in cells)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=FEATURE_DIM)
        for c in (-3.0, 0.5, 7.0):
            np.testing.assert_allclose(
                joint_importance(c * w), abs(c) * joint_importance(w), rtol=1e-12
            )

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="1770"):
            joint_importance(np.zeros(100))


class TestMinmaxNormalize:
    def test_affine_map(self):
        v = np.arange(2.0, 42.0, 2.0)  # 2, 4, ..., 40
        out = minmax_normalize(v)
        assert out.min() == 0.0 and out.max() == 1.0
        assert out[9] == pytest.approx((20.0 - 2.0) / 38.0, abs=1e-12)

    def test_constant_maps_to_zeros(self):
        np.testing.assert_array_equal(minmax_normalize(np.full(20, 3.3)), np.zeros(20))

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=20)
        np.testing.assert_array_equal(np.argsort(minmax_normalize(v)), np.argsort(v))

    def test_scale_invariance_of_normalized_profile(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=FEATURE_DIM)
        n1 = minmax_normalize(joint_importance(w))
        n2 = minmax_normalize(joint_importance(-5.0 * w))
        np.testing.assert_allclose(n1, n2, atol=1e-12)


class TestReduceToGroups:
    def test_pair_average(self):
        v = np.zeros(20)
        v[JOINT_LABELS.index("C")] = 0.2  # L knee
        v[JOINT_LABELS.index("G")] = 0.4  # R knee
        out = reduce_to_groups(v)
        assert out[GROUP_NAMES.index("Knee")] == pytest.approx(0.3)

    def test_symmetric_input_passes_through(self):
        rng = np.random.default_rng(5)
        v = np.zeros(20)
        for group, members in GROUP_MEMBERS.items():
            value = rng.uniform()
            for m in members:
                v[JOINT_LABELS.index(m)] = value
        out = reduce_to_groups(v)
        for gi, group in enumerate(GROUP_NAMES):
            assert out[gi] == pytest.approx(v[JOINT_LABELS.index(GROUP_MEMBERS[group][0])])

    def test_all_ones(self):
        np.testing.assert_array_equal(reduce_to_groups(np.ones(20)), np.ones(12))

    def test_singles_copied(self):
        v = np.arange(20.0)
        out = reduce_to_groups(v)
        assert out[GROUP_NAMES.index("Root")] == v[JOINT_LABELS.index("A")]
        assert out[GROUP_NAMES.index("Torso")] == v[JOINT_LABELS.index("J")]
        assert out[GROUP_NAMES.index("Neck")] == v[JOINT_LABELS.index("K")]
        assert out[GROUP_NAMES.index("Head")] == v[JOINT_LABELS.index("L")]

    def test_group_argmax_stable_under_minmax_order(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            raw = np.abs(rng.normal(size=20))
            before = reduce_to_groups(minmax_normalize(raw))
            after = minmax_normalize(reduce_to_groups(raw))
            assert int(np.argmax(before)) == int(np.argmax(after))


class TestModelWeights:
    def test_bayes_weights_used_directly(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, FEATURE_DIM))
        y = rng.normal(size=12)
        model = fit_bayes_ridge(centered_svd(X), y, max_iter=5, tol=1e-2).model
        expected = reduce_to_groups(minmax_normalize(joint_importance(model.weights)))
        np.testing.assert_array_equal(importance_from_model(model, "EQ"), expected)

    def test_pcr_weights_back_projected(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, FEATURE_DIM))
        y = rng.normal(size=12)
        model = fit_pcr(centered_svd(X), y, k=4)
        assert model.weights.shape == (FEATURE_DIM,)
        basis, coef = reference_pcr(X, y, k=4)
        expected = brute_force_importance(basis.components.T @ coef[1:])
        np.testing.assert_allclose(joint_importance(model.weights), expected,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(importance_from_model(model, "EQ"),
                                   reduce_to_groups(minmax_normalize(expected)),
                                   rtol=0, atol=1e-10)

    def test_profile_invariants(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, FEATURE_DIM))
        y = rng.normal(size=10)
        model = fit_bayes_ridge(centered_svd(X), y, max_iter=5, tol=1e-2).model
        raw = joint_importance(model.weights)
        normalized = minmax_normalize(raw)
        reduced = importance_from_model(model, "EQ")
        assert (raw >= 0).all()
        assert normalized.min() == 0.0 and normalized.max() == 1.0
        assert reduced.shape == (12,)
        # group value equals the mean of its members' normalized values
        for gi, group in enumerate(GROUP_NAMES):
            members = [JOINT_LABELS.index(m) for m in GROUP_MEMBERS[group]]
            assert reduced[gi] == pytest.approx(normalized[members].mean())

    def test_width_error_names_trait(self):
        model = fit_pcr(centered_svd(np.random.default_rng(10).normal(size=(6, 5))),
                        np.arange(6.0), k=2)
        with pytest.raises(ValueError, match=f"model for 'SQ' has 5 feature weights, "
                                             f"expected {FEATURE_DIM}"):
            importance_from_model(model, "SQ")


def _profile(seed):
    """12 group values as importance_from_model gives them, from random joint values."""
    rng = np.random.default_rng(seed)
    return reduce_to_groups(minmax_normalize(np.abs(rng.normal(size=20))))


class TestImportanceReport:
    def test_single_trait_csv(self, tmp_path):
        written = importance_report({"EQ": _profile(0)}, tmp_path)
        with open(written["csv_EQ"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(GROUP_NAMES)
        values = [float(v) for v in rows[1]]
        assert len(values) == 12
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_identical_models_zero_std(self, tmp_path):
        prof = _profile(1)
        profiles = {t: prof.copy() for t in ("O", "C", "E", "A", "N")}
        written = importance_report(profiles, tmp_path)
        with open(written["csv_personality_summary"]) as fh:
            rows = list(csv.reader(fh))
        std_col = rows[0].index("std")
        for row in rows[1:]:
            assert float(row[std_col]) == pytest.approx(0.0, abs=1e-15)

    def test_eq_sq_radar_is_parseable_two_series(self, tmp_path):
        written = importance_report({"EQ": _profile(2), "SQ": _profile(3)}, tmp_path)
        root = ET.fromstring(written["svg_EQ_SQ"].read_text())
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 2
        # 12 axis spokes
        lines = root.findall(f"{ns}line")
        assert len([l for l in lines if l.get("stroke") == "#dddddd"]) == 12

    def test_personality_radars_carry_mean_overlay(self, tmp_path):
        profiles = {t: _profile(i) for i, t in enumerate(("O", "C", "E", "A", "N"))}
        written = importance_report(profiles, tmp_path)
        root = ET.fromstring(written["svg_O"].read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 2  # the trait plus the dashed mean
        dashed = [p for p in polylines if p.get("stroke-dasharray")]
        assert len(dashed) == 1

    def test_group_layout_checked(self, tmp_path):
        with pytest.raises(ValueError, match="disagree on group layout"):
            importance_report({"EQ": _profile(0), "SQ": np.zeros(20)}, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_radar_svg_standalone(self):
        svg = radar_svg({"EQ": np.linspace(0, 1, 12)}, title="t")
        root = ET.fromstring(svg)
        assert root.get("width") is not None
        assert "xlink" not in svg and "href" not in svg  # no external assets
