"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Published scores for the original (private) dataset are rendered in
reports for comparison but never asserted here; every numeric check below
is against an independent oracle or a hand-computed value.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from movetrait.cli import PipelineConfig, cmd_evaluate, cmd_extract, cmd_train
from movetrait.evaluation import (
    ModelSpec,
    REFERENCE_RESULTS,
    cross_validate,
    make_fold_plan,
    r2,
    rmse,
    score_table_text,
    ScoreTable,
    CvResult,
)
from movetrait.features import (
    FeatureMatrix,
    RowMeta,
    extract_features,
    pairwise_correntropy,
    vectorize_lower,
)
from movetrait.importance import FEATURE_DIM, joint_importance, minmax_normalize
from movetrait.mocap import (
    butter_lowpass,
    derive_joints,
    zero_phase_filter,
)
from movetrait.regression import (
    TRAIT_NAMES,
    build_dataset,
    centered_svd,
    fit_bayes_ridge,
    fit_pcr,
    predict_means,
)
from movetrait.synth import default_strong_spec, iter_takes, sample_traits, write_dataset
from oracles import filter_magnitude_squared, unvectorize_lower


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {name}: FAIL ({exc})")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_c1_reference_constants_rendered_never_asserted():
    with criterion("reference-constants"):
        # the published cells exist as data and appear in the rendered report
        assert REFERENCE_RESULTS["EQ"][("position", "bayes_ridge")] == (2.722, 0.771)
        assert REFERENCE_RESULTS["SQ"][("position", "bayes_ridge")] == (2.161, 0.867)
        res = CvResult((1.0,) * 5, (0.5,) * 5, 1.0, 0.5, 1.0, 0.5)
        table = ScoreTable(
            cells={("position", "bayes_ridge", "EQ"): res},
            n_folds=5, seed=0, grouping="participant",
        )
        text = score_table_text(table)
        assert "(ref 2.722)" in text and "(ref 0.771)" in text
        assert "comparison only" in text


def test_c2_kernel_matches_scalar_oracle():
    with criterion("kernel-correctness"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        sigma = 12.0
        for _ in range(100):
            frames = int(rng.integers(2, 40))
            dim = int(rng.integers(2, 12))
            data = rng.normal(0.0, rng.uniform(1.0, 100.0), size=(frames, dim))
            k = pairwise_correntropy(data, sigma)
            # independent scalar re-evaluation of the kernel definition
            denom = 2.0 * sigma * sigma * frames * frames
            for i in range(dim):
                for j in range(dim):
                    d = data[:, i] - data[:, j]
                    expected = np.exp(-float(np.dot(d, d)) / denom)
                    assert abs(k[i, j] - expected) <= 1e-12
            assert np.array_equal(k, k.T)
            assert np.array_equal(np.diag(k), np.ones(dim))
            # duplicating every frame halves the exponent
            k2 = pairwise_correntropy(np.repeat(data, 2, axis=0), sigma)
            assert np.max(np.abs(k2 - np.sqrt(k))) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"kernel check took {elapsed:.2f}s"


def test_c3_feature_shape_and_round_trip():
    with criterion("feature-shape"):
        spec = default_strong_spec(participants=1, stimuli=1, frames=50, seed=3)
        take = next(iter_takes(spec))
        joints = derive_joints(take)
        assert joints.data.shape[1] == 60
        vec = extract_features(joints)
        assert vec.shape == (1770,)
        k = pairwise_correntropy(joints.data)
        rebuilt = unvectorize_lower(vectorize_lower(k), 60)
        assert np.array_equal(rebuilt, k)


def test_c4_regression_oracle_equivalence():
    with criterion("regression-oracles"):
        start = time.monotonic()
        # (a) full-rank PCR equals direct least squares
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(30, 8))
            y = rng.normal(size=30)
            model = fit_pcr(centered_svd(X), y, k=8)
            design = np.column_stack([np.ones(30), X])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            assert np.max(np.abs(predict_means(model, X) - design @ coef)) <= 1e-6
        # (b) planted weights on noiseless tall data
        rng = np.random.default_rng(999)
        X = rng.normal(size=(200, 5))
        w0 = rng.normal(size=5)
        y = X @ w0
        model = fit_bayes_ridge(centered_svd(X), y).model
        assert np.max(np.abs(model.weights - w0)) <= 1e-3
        assert r2(y, predict_means(model, X)) >= 0.999
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"regression check took {elapsed:.2f}s"


def test_c5_metric_identities():
    with criterion("metric-identities"):
        assert abs(rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
                   - 3.5355339059327378) <= 1e-9
        assert abs(r2(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0]))) <= 1e-9
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            y = rng.normal(size=n)
            yh = rng.normal(size=n)
            sst = float(np.sum((y - y.mean()) ** 2))
            identity = 1.0 - (n * rmse(y, yh) ** 2) / sst
            assert abs(r2(y, yh) - identity) <= 1e-9


def test_c6_joint_importance_equivalence():
    with criterion("joint-importance"):
        rng = np.random.default_rng(77)
        for _ in range(50):
            w = rng.normal(size=FEATURE_DIM)
            got = joint_importance(w)
            # independently coded accumulation over the lower triangle
            expected = np.zeros(20)
            k = 0
            for i in range(1, 60):
                for j in range(i):
                    expected[i // 3] += abs(w[k])
                    expected[j // 3] += abs(w[k])
                    k += 1
            assert np.max(np.abs(got - expected)) <= 1e-12
            assert got.sum() == pytest.approx(2.0 * np.abs(w).sum(), rel=1e-12)
            normalized = minmax_normalize(got)
            assert normalized.min() == 0.0 and normalized.max() == 1.0
            assert np.array_equal(np.argsort(normalized), np.argsort(got))


def test_c7_end_to_end_planted_signal():
    # Thresholds frozen from the reference run on this exact spec
    # (60 x 4 x 4200, seed 7, fold seed 0): per-trait mean R2 0.941..0.965,
    # shuffled control 0.004.
    with criterion("end-to-end-planted-signal"):
        start = time.monotonic()
        spec = default_strong_spec()
        traits = sample_traits(spec)
        vecs, rows = [], []
        for take in iter_takes(spec, traits):
            vecs.append(extract_features(derive_joints(take)))
            rows.append(RowMeta(take.participant_id, take.stimulus_id))
        matrix = FeatureMatrix(values=np.stack(vecs), rows=tuple(rows))
        assert matrix.values.shape == (240, 1770)
        X, Y, participants = build_dataset(matrix, traits, TRAIT_NAMES, "per_stimulus")
        plan = make_fold_plan(len(X), 5, seed=0, groups=participants)
        per_trait = cross_validate(X, Y, [ModelSpec("bayes_ridge")], plan)[0]
        worst = min(res.mean_r2 for res in per_trait)
        assert worst >= 0.7, f"worst trait mean R2 {worst:.3f} below 0.7"
        shuffled = Y[:, TRAIT_NAMES.index("EQ")].copy()
        np.random.default_rng(12345).shuffle(shuffled)
        ctrl = cross_validate(X, shuffled, [ModelSpec("bayes_ridge")], plan)[0][0]
        assert ctrl.mean_r2 <= 0.1, f"shuffled control R2 {ctrl.mean_r2:.3f}"
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"end-to-end took {elapsed:.0f}s"


def test_c8_filter_response():
    with criterion("filter-response"):
        fs, fc = 120.0, 24.0
        b, a = butter_lowpass(fc, fs)
        for f in (6.0, 24.0, 48.0):
            # analytic squared magnitude of the prewarped bilinear design
            analytic = 1.0 / (1.0 + (np.tan(np.pi * f / fs) / np.tan(np.pi * fc / fs)) ** 4)
            designed = filter_magnitude_squared(b, a, f, fs)
            assert abs(designed - analytic) / analytic <= 1e-3
        # zero-phase symmetry: symmetric pulse keeps its peak position
        n = 121
        pulse = np.exp(-0.5 * ((np.arange(n) - 60) / 5.0) ** 2)
        out = zero_phase_filter(pulse[:, None], b, a)[:, 0]
        assert int(np.argmax(out)) == 60
        assert np.max(np.abs(out - out[::-1])) <= 1e-9


def test_c9_pipeline_determinism(tmp_path):
    with criterion("pipeline-determinism"):
        takes_dir = tmp_path / "takes"
        spec = default_strong_spec(participants=10, stimuli=2, frames=60, seed=21,
                                   noise_std=2.0)
        write_dataset(spec, takes_dir)
        cfg = PipelineConfig.from_dict({
            **PipelineConfig().to_dict(),
            "takes_dir": str(takes_dir),
            "traits_csv": str(takes_dir / "traits.csv"),
            "output_dir": str(tmp_path / "out"),
            "extract_kinds": ["position", "velocity"],
            "eval_inputs": ["position", "velocity_n"],
            "model_kinds": ["bayes_ridge"],
            "traits": ["EQ", "SQ"],
            "n_folds": 5,
            "fold_seed": 4,
            "grouping": "participant",
        })

        def run():
            cmd_extract(cfg)
            cmd_train(cfg)
            cmd_evaluate(cfg)
            out = cfg.resolved_output_dir()
            tracked = sorted(
                list(out.glob("extract/features_*.csv"))
                + list(out.glob("train/model_*.json"))
                + list(out.glob("evaluate/scores.*"))
            )
            return {p.relative_to(out).as_posix(): p.read_bytes() for p in tracked}

        first = run()
        second = run()
        assert set(first) == set(second) == {
            "extract/features_position.csv", "extract/features_velocity.csv",
            "train/model_EQ.json", "train/model_SQ.json",
            "evaluate/scores.csv", "evaluate/scores.txt",
        }
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


def test_model_files_are_valid_json(tmp_path):
    # provenance plumbing sanity on top of the determinism run artifacts
    with criterion("model-file-schema"):
        takes_dir = tmp_path / "takes"
        spec = default_strong_spec(participants=10, stimuli=1, frames=40, seed=2,
                                   noise_std=1.0)
        write_dataset(spec, takes_dir)
        cfg = PipelineConfig.from_dict({
            **PipelineConfig().to_dict(),
            "takes_dir": str(takes_dir),
            "traits_csv": str(takes_dir / "traits.csv"),
            "output_dir": str(tmp_path / "out"),
            "extract_kinds": ["position"],
            "traits": ["EQ"],
        })
        cmd_extract(cfg)
        cmd_train(cfg)
        doc = json.loads(
            (cfg.resolved_output_dir() / "train" / "model_EQ.json").read_text()
        )
        assert doc["kind"] == "bayes_ridge"
        assert set(doc) == {"kind", "weights", "x_mean", "intercept", "provenance"}
