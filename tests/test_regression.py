import dataclasses
import json
from functools import cache

import numpy as np
import pytest

from movetrait.evaluation import make_fold_plan
from movetrait.features import (
    apply_gaussian_stats,
    extract_features,
    gaussian_stats,
)
from movetrait.mocap import derive_joints, velocity
from movetrait.regression import (
    _HYPER_MAX,
    _HYPER_MIN,
    TRAIT_NAMES,
    CenteredSvd,
    DatasetMode,
    LinearModel,
    build_dataset,
    centered_svd,
    fit_bayes_ridge,
    fit_pca,
    fit_pcr,
    load_model,
    load_trait_table,
    predict_means,
    save_model,
)
from movetrait.synth import default_strong_spec, generate
from oracles import fit_bayes_ridge_every_step


class TestFitPca:
    def test_recovers_principal_axis(self):
        rng = np.random.default_rng(0)
        u = np.array([3.0, 4.0]) / 5.0
        t = rng.normal(0, 10, size=500)
        noise = rng.normal(0, 0.01, size=(500, 2))
        X = t[:, None] * u + noise
        basis = fit_pca(centered_svd(X), k=1)
        angle = abs(float(basis.components[0] @ u))
        assert angle == pytest.approx(1.0, abs=1e-6)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 6))
        basis = fit_pca(centered_svd(X), k=6)
        scores = basis.project(X)
        recon = basis.mean + scores @ basis.components
        np.testing.assert_allclose(recon, X, atol=1e-8)

    def test_isotropic_variances_close(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5000, 2))
        basis = fit_pca(centered_svd(X), k=2)
        ev = basis.explained_variance
        assert ev[0] / ev[1] == pytest.approx(1.0, abs=0.1)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        basis = fit_pca(centered_svd(rng.normal(size=(40, 12))), k=8)
        gram = basis.components @ basis.components.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)

    def test_explained_variance_non_increasing(self):
        rng = np.random.default_rng(4)
        basis = fit_pca(centered_svd(rng.normal(size=(40, 12)) * np.arange(1, 13)), k=10)
        assert all(a >= b for a, b in zip(basis.explained_variance,
                                          basis.explained_variance[1:]))

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        basis = fit_pca(centered_svd(rng.normal(size=(30, 7))), k=5)
        for row in basis.components:
            assert row[np.argmax(np.abs(row))] > 0

    @pytest.mark.parametrize("k", [0, 8, 40])
    def test_k_out_of_range(self, k):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="k out of range"):
            fit_pca(centered_svd(rng.normal(size=(8, 20))), k=k)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 6))
        shift = rng.normal(size=6) * 100
        b1 = fit_pca(centered_svd(X), k=4)
        b2 = fit_pca(centered_svd(X + shift), k=4)
        np.testing.assert_allclose(b1.components, b2.components, atol=1e-9)


def reference_pcr(X, y, k):
    """PCR the long way: top-k basis, projection, then lstsq on [1, scores].

    Returns the basis and the coefficients, intercept first.
    """
    basis = fit_pca(centered_svd(X), k)
    design = np.column_stack([np.ones(X.shape[0]), basis.project(X)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return basis, coef


class TestFitPcr:
    @pytest.mark.parametrize("standardized", [False, True])
    @pytest.mark.parametrize("k", [24, 16])
    def test_matches_reference_on_cv_sized_blocks(self, k, standardized):
        # 32 training rows of 1770 features, as in one fold of a 40-take grid
        rng = np.random.default_rng(50 + k)
        X = 0.5 + 0.1 * rng.normal(size=(32, 1770)) * rng.uniform(0.2, 2.0, size=1770)
        y = X[:, :40] @ rng.normal(size=40) + rng.normal(scale=0.3, size=32)
        if standardized:
            X = apply_gaussian_stats(X, *gaussian_stats(X))
        model = fit_pcr(centered_svd(X), y, k)
        basis, coef = reference_pcr(X, y, k)
        rows = np.vstack([X, X[:8] + 0.05 * rng.normal(size=(8, 1770))])
        np.testing.assert_allclose(predict_means(model, rows),
                                   coef[0] + basis.project(rows) @ coef[1:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.weights, basis.components.T @ coef[1:],
                                   rtol=0, atol=1e-12)

    def test_target_linear_in_first_score(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 6)) * np.array([10, 1, 1, 1, 1, 1])
        f = centered_svd(X)
        basis = fit_pca(f, k=1)
        y = 3.0 * basis.project(X)[:, 0] + 2.0
        model = fit_pcr(f, y, k=1)
        pred = predict_means(model, X)
        sse = np.sum((y - pred) ** 2)
        sst = np.sum((y - y.mean()) ** 2)
        assert 1.0 - sse / sst == pytest.approx(1.0, abs=1e-9)

    def test_full_rank_matches_least_squares(self):
        # oracle: direct least-squares solve with intercept column
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(30, 8))
            y = rng.normal(size=30)
            model = fit_pcr(centered_svd(X), y, k=8)
            design = np.column_stack([np.ones(30), X])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            np.testing.assert_allclose(
                predict_means(model, X), design @ coef, atol=1e-6
            )

    def test_constant_target(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 5))
        model = fit_pcr(centered_svd(X), np.full(20, 7.5), k=3)
        assert model.intercept == pytest.approx(7.5, abs=1e-9)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-9)

    def test_degenerate_scores_rejected(self):
        X = np.zeros((10, 4))
        X[:, 0] = np.arange(10)
        with pytest.raises(ValueError, match="degenerate"):
            fit_pcr(centered_svd(X), np.arange(10.0), k=3)

    def test_scaling_target_by_two_scales_predictions_exactly(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(25, 6))
        y = rng.normal(size=25)
        f = centered_svd(X)
        m1 = fit_pcr(f, y, k=4)
        m2 = fit_pcr(f, 2.0 * y, k=4)
        np.testing.assert_array_equal(predict_means(m2, X), 2.0 * predict_means(m1, X))

    def test_scaling_keeps_r2_and_scales_rmse(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(25, 6))
        y = X[:, 0] + rng.normal(scale=0.3, size=25)
        def scores(yv):
            pred = predict_means(fit_pcr(centered_svd(X), yv, k=4), X)
            rmse = float(np.sqrt(np.mean((yv - pred) ** 2)))
            r2 = 1.0 - np.sum((yv - pred) ** 2) / np.sum((yv - yv.mean()) ** 2)
            return rmse, r2
        rmse1, r2_1 = scores(y)
        rmse2, r2_2 = scores(3.7 * y)
        assert r2_2 == pytest.approx(r2_1, abs=1e-9)
        assert rmse2 == pytest.approx(3.7 * rmse1, rel=1e-9)


class TestFitBayesRidge:
    def test_recovers_planted_weights(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(200, 5))
        w0 = np.array([1.5, -2.0, 0.7, 3.0, -1.0])
        y = X @ w0
        fit = fit_bayes_ridge(centered_svd(X), y)
        np.testing.assert_allclose(fit.model.weights, w0, atol=1e-3)
        pred = predict_means(fit.model, X)
        r2 = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 >= 0.999
        assert fit.converged

    def test_constant_target(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(50, 6))
        model = fit_bayes_ridge(centered_svd(X), np.full(50, 4.2)).model
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-12)
        assert model.intercept == pytest.approx(4.2, abs=1e-12)

    def test_duplicated_rows_same_posterior_mean(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(200, 5))
        y = X @ np.array([1.0, -0.5, 2.0, 0.3, -1.2]) + rng.normal(scale=1e-3, size=200)
        m1 = fit_bayes_ridge(centered_svd(X), y).model
        m2 = fit_bayes_ridge(centered_svd(np.vstack([X, X])), np.concatenate([y, y])).model
        np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-6)

    def test_ridge_limit_reaches_least_squares(self):
        # the weights are the ridge posterior mean at the returned alpha and
        # lambda: the primal solve on a tall block, the dual solve on a wide one
        rng = np.random.default_rng(23)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([2.0, -1.0, 0.5, 3.0]) + rng.normal(scale=0.2, size=60)
        fit = fit_bayes_ridge(centered_svd(X), y)
        Xc, yc = X - X.mean(0), y - y.mean()
        ratio = fit.lambda_ / fit.alpha
        w = np.linalg.solve(Xc.T @ Xc + ratio * np.eye(4), Xc.T @ yc)
        assert _rel(fit.model.weights, w) <= 1e-12

        X = _fold_block(rng, 32, False)
        y = X[:, :40] @ rng.normal(size=40) + rng.normal(scale=0.3, size=32)
        fit = fit_bayes_ridge(centered_svd(X), y)
        Xc, yc = X - X.mean(0), y - y.mean()
        ratio = fit.lambda_ / fit.alpha
        w = Xc.T @ np.linalg.solve(Xc @ Xc.T + ratio * np.eye(32), yc)
        assert _rel(fit.model.weights, w) <= 1e-12

    def test_reports_non_convergence(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(40, 10))
        y = rng.normal(size=40)
        fit = fit_bayes_ridge(centered_svd(X), y, tol=0.0, max_iter=3)
        assert not fit.converged
        assert fit.iterations == 3

    def test_rejects_nonfinite(self):
        X = np.ones((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_bayes_ridge(centered_svd(X), np.ones(5))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(40, 12))
        y = rng.normal(size=40)
        m1 = fit_bayes_ridge(centered_svd(X.copy()), y.copy())
        m2 = fit_bayes_ridge(centered_svd(X.copy()), y.copy())
        np.testing.assert_array_equal(m1.model.weights, m2.model.weights)
        assert m1.alpha == m2.alpha and m1.lambda_ == m2.lambda_


def reference_bayes_ridge(factor, y, tol=1e-3, max_iter=300):
    """The evidence loop as first written: every quantity recomputed in every
    iteration, clamps through ``np.clip``. Oracle for ``fit_bayes_ridge``,
    which must match it bit for bit. Returns (weights, alpha, lambda, gamma,
    converged, iterations)."""
    s, vh = factor.s, factor.vh
    n = factor.shape[0]
    yc = y - float(y.mean())
    eig = s**2
    uty = factor.u.T @ yc

    var_y = float(yc @ yc) / n
    alpha = float(np.clip(1.0 / max(var_y, _HYPER_MIN), _HYPER_MIN, _HYPER_MAX))
    lam = 1.0

    def posterior_mean_coords(ratio):
        return s * uty / (eig + ratio)

    beta = vh.T @ posterior_mean_coords(lam / alpha)
    converged = False
    iterations = 1
    for it in range(2, max_iter + 1):
        coords = posterior_mean_coords(lam / alpha)
        gamma = float(np.sum(eig / (eig + lam / alpha)))
        rss = float(np.sum((uty - s * coords) ** 2)) + float(yc @ yc - uty @ uty)
        bnorm = float(coords @ coords)
        if bnorm > 0:
            lam = float(np.clip(gamma / bnorm, _HYPER_MIN, _HYPER_MAX))
        if rss > 0:
            alpha = float(np.clip((n - gamma) / rss, _HYPER_MIN, _HYPER_MAX))
        new_beta = vh.T @ posterior_mean_coords(lam / alpha)
        if not np.isfinite(new_beta).all():
            raise FloatingPointError("non-finite intermediate in evidence maximization")
        iterations = it
        if float(np.max(np.abs(new_beta - beta))) < tol:
            beta = new_beta
            converged = True
            break
        beta = new_beta
    gamma = float(np.sum(eig / (eig + lam / alpha)))
    return beta, alpha, lam, gamma, converged, iterations


def _fold_block(rng, n, standardized):
    """n training rows of 1770 features, shaped like one cross-validation fold."""
    X = 0.5 + 0.1 * rng.normal(size=(n, 1770)) * rng.uniform(0.2, 2.0, size=1770)
    if standardized:
        X = apply_gaussian_stats(X, *gaussian_stats(X))
    return X


@cache
def _synth_design(kind):
    """Features and trait targets of 40 synthetic single-take participants at
    600 frames, the shape of the benchmark's cross-validation grid."""
    takes, traits = generate(default_strong_spec(participants=40, stimuli=1,
                                                 frames=600, seed=1))
    joints = [(derive_joints(take), take.frame_rate) for take in takes]
    X = np.stack([extract_features(j if kind == "position" else velocity(j, rate))
                  for j, rate in joints])
    Y = np.array([[traits[take.participant_id][t] for t in TRAIT_NAMES] for take in takes])
    return X, Y


def _synth_folds(n):
    """(train, validation) row masks of a 5-fold plan."""
    plan = make_fold_plan(n, 5, seed=0)
    return [(plan.assignments != f, plan.assignments == f) for f in range(plan.n_folds)]


class TestEvidenceLoopOracle:
    """``fit_bayes_ridge`` is bit-identical to ``reference_bayes_ridge`` on one factor."""

    @staticmethod
    def assert_same(factor, y, **kw):
        fit = fit_bayes_ridge(factor, y, **kw)
        weights, alpha, lam, gamma, converged, iterations = reference_bayes_ridge(factor, y, **kw)
        np.testing.assert_array_equal(fit.model.weights, weights)
        assert (fit.alpha, fit.lambda_, fit.gamma, fit.converged, fit.iterations) == (
            alpha, lam, gamma, converged, iterations)
        return fit

    @pytest.mark.parametrize("standardized", [False, True])
    @pytest.mark.parametrize("n", [24, 32, 40])
    def test_fold_sized_blocks(self, n, standardized):
        rng = np.random.default_rng(400 + n)
        X = _fold_block(rng, n, standardized)
        factor = centered_svd(X)
        planted = X[:, :40] @ rng.normal(size=40)
        for y in (planted + rng.normal(scale=0.3, size=n), planted, rng.normal(size=n)):
            self.assert_same(factor, y)

    @pytest.mark.parametrize("kind", ["position", "velocity"])
    def test_folds_of_a_synth_dataset(self, kind):
        X, Y = _synth_design(kind)
        for train, _ in _synth_folds(len(X)):
            factor = centered_svd(X[train])
            for y in Y[train].T:
                self.assert_same(factor, y)

    def test_constant_target(self):
        factor = centered_svd(_fold_block(np.random.default_rng(410), 32, False))
        fit = self.assert_same(factor, np.full(32, 4.2))
        assert fit.converged

    def test_fixed_hyperparameters(self):
        # max_iter=1 stops at the starting point: alpha = clamp(1/var(y)),
        # lambda = 1, and the ridge posterior mean at that ratio
        rng = np.random.default_rng(411)
        X = _fold_block(rng, 32, True)
        factor = centered_svd(X)
        Xc = X - X.mean(axis=0)
        base = rng.normal(size=32)
        for scale in (1.0, 250.0, 1e-8):
            y = scale * base
            fit = self.assert_same(factor, y, max_iter=1)
            assert fit.iterations == 1 and not fit.converged
            yc = y - y.mean()
            assert fit.alpha == min(max(1.0 / (yc @ yc / 32), _HYPER_MIN), _HYPER_MAX)
            assert fit.lambda_ == 1.0
            ratio = fit.lambda_ / fit.alpha
            w = Xc.T @ np.linalg.solve(Xc @ Xc.T + ratio * np.eye(32), yc)
            assert _rel(fit.model.weights, w) <= 1e-12

    def test_clamped_at_hyper_max(self):
        # a target of scale 1e-6 drives both precisions past the clamp in the loop
        rng = np.random.default_rng(412)
        X = rng.normal(size=(40, 30))
        y = 1e-6 * (X[:, :3] @ np.array([1.5, -2.0, 0.7]) + 0.1 * rng.normal(size=40))
        assert 1.0 / y.var() < _HYPER_MAX
        fit = self.assert_same(centered_svd(X), y)
        assert fit.alpha == fit.lambda_ == _HYPER_MAX

    def test_iteration_cap(self):
        rng = np.random.default_rng(413)
        factor = centered_svd(_fold_block(rng, 24, False))
        fit = self.assert_same(factor, rng.normal(size=24), tol=0.0, max_iter=5)
        assert not fit.converged and fit.iterations == 5


def wide_side_svd(X):
    """The factor as first computed, ``np.linalg.svd`` of the wide n x d block."""
    mean = X.mean(axis=0)
    u, s, vh = np.linalg.svd(X - mean, full_matrices=False)
    return CenteredSvd(mean=mean, u=u, s=s, vh=vh)


def _rel(a, b):
    """Largest difference relative to the largest magnitude of ``b``."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _ulp_perturbed(X, seed):
    """X with every entry moved one ulp up or down at random."""
    up = np.random.default_rng(seed).random(X.shape) < 0.5
    return np.nextafter(X, np.where(up, np.inf, -np.inf))


@cache
def _tall_side_blocks():
    """By name, n training rows of 1770 features, a target and 8 validation rows."""
    rng = np.random.default_rng(500)
    blocks = {}
    for n in (24, 32, 40, 464):
        X = 0.5 + 0.1 * rng.normal(size=(n + 8, 1770)) * rng.uniform(0.2, 2.0, size=1770)
        y = X[:n, :40] @ rng.normal(size=40) + rng.normal(scale=0.3, size=n)
        blocks[f"{n}x1770"] = X[:n], y, X[n:]
        Z = apply_gaussian_stats(X, *gaussian_stats(X[:n]))
        y = Z[:n, :40] @ rng.normal(size=40) + rng.normal(size=n)
        blocks[f"{n}x1770 standardized"] = Z[:n], y, Z[n:]
    return blocks


class TestTallSideFactor:
    """``centered_svd`` factors the tall transpose. It agrees with the wide-side
    SVD to rounding, and Bayesian ridge to within what one ulp of input moves.

    Where a fold interpolates (train R2 of 1, alpha near the clamp), rss sits
    at rounding level and the evidence loop amplifies any rounding change:
    one ulp of input moves the wide-side weights by up to 3e-7 relative on
    these folds, or by 1e-13 on the same block with another draw of ulps.
    So the bound is 4 x the largest change over 4 seeded one-ulp
    perturbations, and never tighter than 1e-12.
    """

    @staticmethod
    def check(X, y_columns, X_val, k):
        new, old = centered_svd(X), wide_side_svd(X)
        np.testing.assert_array_equal(new.mean, old.mean)
        assert new.shape == old.shape == X.shape
        assert np.max(np.abs(new.s - old.s)) <= 1e-14 * old.s[0]
        perturbed = [wide_side_svd(_ulp_perturbed(X, seed)) for seed in range(4)]
        rows = np.vstack([X, X_val])
        for y in y_columns:
            pcr_new, pcr_old = fit_pcr(new, y, k), fit_pcr(old, y, k)
            assert _rel(pcr_new.weights, pcr_old.weights) <= 1e-12
            assert _rel(predict_means(pcr_new, rows), predict_means(pcr_old, rows)) <= 1e-12

            fit_new, fit_old = fit_bayes_ridge(new, y), fit_bayes_ridge(old, y)
            assert (fit_new.iterations, fit_new.converged) == (
                fit_old.iterations, fit_old.converged)
            delta_ulp = max(_rel(fit_bayes_ridge(f, y).model.weights, fit_old.model.weights)
                            for f in perturbed)
            assert _rel(fit_new.model.weights, fit_old.model.weights) <= max(
                1e-12, 4 * delta_ulp)

    @pytest.mark.parametrize("name", list(_tall_side_blocks()))
    def test_seeded_blocks(self, name):
        X, y, X_val = _tall_side_blocks()[name]
        self.check(X, [y], X_val, k=16)

    @pytest.mark.parametrize("standardized", [False, True])
    @pytest.mark.parametrize("kind, k", [("position", 24), ("velocity", 16)])
    def test_folds_of_a_synth_dataset(self, kind, k, standardized):
        X, Y = _synth_design(kind)
        for train, val in _synth_folds(len(X)):
            xtr, xva = X[train], X[val]
            if standardized:
                mu, sd = gaussian_stats(xtr)
                xtr, xva = apply_gaussian_stats(xtr, mu, sd), apply_gaussian_stats(xva, mu, sd)
            self.check(xtr, Y[train].T, xva, k)


class _CountedVh(np.ndarray):
    """A factor's ``vh`` that counts its transposes, one per d-dim product
    ``vh.T @ coords`` of the evidence loop."""

    products = 0

    @property
    def T(self):
        _CountedVh.products += 1
        return super().T.view(np.ndarray)


class TestEvidenceSkip:
    """``fit_bayes_ridge``, which skips the d-dim product on steps that
    cannot converge, against the loop that forms it on every step
    (``oracles.fit_bayes_ridge_every_step``): the same Evidence bit for bit."""

    @staticmethod
    def assert_same(factor, y, **kw):
        """The fit, after checking it against the oracle, and the number of
        d-dim products it formed."""
        _CountedVh.products = 0
        fit = fit_bayes_ridge(dataclasses.replace(factor, vh=factor.vh.view(_CountedVh)), y, **kw)
        products = _CountedVh.products
        ref = fit_bayes_ridge_every_step(factor, y, **kw)
        assert type(fit.model.weights) is np.ndarray
        assert fit.model.weights.tobytes() == ref.model.weights.tobytes()
        assert fit.model.intercept == ref.model.intercept
        assert (fit.alpha, fit.lambda_, fit.gamma, fit.converged, fit.iterations) == (
            ref.alpha, ref.lambda_, ref.gamma, ref.converged, ref.iterations)
        assert products <= fit.iterations
        return fit, products

    @pytest.mark.parametrize("name", list(_tall_side_blocks()))
    def test_tall_side_blocks(self, name):
        X, y, _ = _tall_side_blocks()[name]
        self.assert_same(centered_svd(X), y)

    @pytest.mark.parametrize("standardized", [False, True])
    @pytest.mark.parametrize("kind", ["position", "velocity"])
    def test_folds_of_a_synth_dataset(self, kind, standardized):
        X, Y = _synth_design(kind)
        iterations = products = clamped = 0
        for train, _ in _synth_folds(len(X)):
            xtr = X[train]
            if standardized:
                xtr = apply_gaussian_stats(xtr, *gaussian_stats(xtr))
            factor = centered_svd(xtr)
            for y in Y[train].T:
                fit, formed = self.assert_same(factor, y)
                iterations += fit.iterations
                products += formed
                clamped += fit.alpha == _HYPER_MAX
        assert products < iterations   # some steps skip the product
        if kind == "position" and not standardized:
            assert clamped   # some folds interpolate: alpha ends on the clamp

    def test_constant_target(self):
        factor = centered_svd(_fold_block(np.random.default_rng(420), 32, False))
        fit, _ = self.assert_same(factor, np.full(32, 4.2))
        assert fit.converged

    def test_iteration_cap_without_tolerance(self):
        rng = np.random.default_rng(421)
        X = rng.normal(size=(40, 10))
        fit, _ = self.assert_same(centered_svd(X), rng.normal(size=40), tol=0.0, max_iter=3)
        assert not fit.converged and fit.iterations == 3

    def test_tall_planted_design(self):
        # the design of acceptance criterion c4 (b): 200 x 5, noiseless
        rng = np.random.default_rng(999)
        X = rng.normal(size=(200, 5))
        fit, _ = self.assert_same(centered_svd(X), X @ rng.normal(size=5))
        assert fit.converged

    def test_large_coordinates_test_every_step(self):
        # coordinates past tol / (4 r**1.5 eps), where rounding in the d-dim
        # products could reach tol: no step skips them
        rng = np.random.default_rng(422)
        X = _fold_block(rng, 32, False)
        fit, products = self.assert_same(centered_svd(X), 1e12 * rng.normal(size=32),
                                         max_iter=40)
        assert fit.iterations > 2 and products == fit.iterations

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_target_raises(self):
        rng = np.random.default_rng(423)
        factor = centered_svd(_fold_block(rng, 32, False))
        y = 1.5e308 * np.tanh(rng.normal(size=32))
        with pytest.raises(FloatingPointError, match="non-finite intermediate"):
            fit_bayes_ridge_every_step(factor, y)
        with pytest.raises(FloatingPointError, match="non-finite intermediate"):
            fit_bayes_ridge(factor, y)


class TestPredict:
    def test_mean_at_training_center_is_intercept(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(50, 5))
        y = X @ np.ones(5) + rng.normal(scale=0.1, size=50)
        model = fit_bayes_ridge(centered_svd(X), y).model
        mean = predict_means(model, X.mean(axis=0)[None, :])[0]
        assert mean == pytest.approx(model.intercept, abs=1e-9)

    def test_pcr_prediction_matches_fit(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(40, 6)) * np.array([10, 1, 1, 1, 1, 1])
        f = centered_svd(X)
        basis = fit_pca(f, k=1)
        y = 3.0 * basis.project(X)[:, 0] + 2.0
        model = fit_pcr(f, y, k=1)
        assert predict_means(model, X[:1])[0] == pytest.approx(y[0], abs=1e-9)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(33)
        model = fit_bayes_ridge(centered_svd(rng.normal(size=(20, 4))), rng.normal(size=20)).model
        with pytest.raises(ValueError, match="expected 4 features"):
            predict_means(model, np.zeros((1, 5)))

    def test_unknown_model_type(self):
        with pytest.raises(TypeError, match="unknown model type"):
            predict_means(object(), np.zeros((1, 4)))


def _feature_rows(n_participants, n_stimuli, n_features=6, seed=0):
    """Feature values, one row per take, and each row's participant."""
    rng = np.random.default_rng(seed)
    participants = [f"P{p:03d}" for p in range(n_participants) for _ in range(n_stimuli)]
    return rng.normal(size=(len(participants), n_features)), participants


class TestBuildDataset:
    def test_per_stimulus_row_count(self):
        values, pids = _feature_rows(58, 16)
        table = {f"P{p:03d}": {"EQ": float(p)} for p in range(58)}
        X, Y, participants = build_dataset(values, pids, table, ["EQ"], DatasetMode.PER_STIMULUS)
        assert X.shape[0] == 928
        assert Y.shape == (928, 1)
        assert len(participants) == 928
        # target repeated per participant
        assert Y[0, 0] == Y[15, 0] == 0.0

    def test_participant_mean_row_count(self):
        values, pids = _feature_rows(58, 16)
        table = {f"P{p:03d}": {"EQ": float(p)} for p in range(58)}
        X, Y, _ = build_dataset(values, pids, table, ["EQ"], DatasetMode.PARTICIPANT_MEAN)
        assert X.shape[0] == 58
        np.testing.assert_array_equal(Y, np.arange(58.0)[:, None])

    def test_participant_mean_averages_rows(self):
        values, pids = _feature_rows(3, 4, seed=5)
        table = {f"P{p:03d}": {"O": 1.0} for p in range(3)}
        X, _, _ = build_dataset(values, pids, table, ["O"], "participant_mean")
        np.testing.assert_allclose(X[1], values[4:8].mean(axis=0), atol=1e-12)

    def test_several_traits_give_target_columns(self):
        values, pids = _feature_rows(6, 3, seed=8)
        table = {f"P{p:03d}": {"EQ": float(p), "SQ": 10.0 - p} for p in range(6)}
        for mode in DatasetMode:
            X, Y, participants = build_dataset(values, pids, table, ("SQ", "EQ"), mode)
            X_sq, Y_sq, participants_sq = build_dataset(values, pids, table, ["SQ"], mode)
            _, Y_eq, _ = build_dataset(values, pids, table, ["EQ"], mode)
            assert Y.shape == (len(Y_sq), 2)
            np.testing.assert_array_equal(Y[:, :1], Y_sq)
            np.testing.assert_array_equal(Y[:, 1:], Y_eq)
            np.testing.assert_array_equal(X, X_sq)
            assert participants == participants_sq

    def test_missing_participant_named_in_error(self):
        values, pids = _feature_rows(3, 2)
        table = {"P000": {"EQ": 1.0}, "P001": {"EQ": 2.0}}
        with pytest.raises(ValueError, match="P002"):
            build_dataset(values, pids, table, ["EQ"], "per_stimulus")

    def test_participant_count_must_match_rows(self):
        values, pids = _feature_rows(3, 2)
        table = {f"P{p:03d}": {"EQ": 1.0} for p in range(3)}
        with pytest.raises(ValueError, match="5 participants for 6 feature rows"):
            build_dataset(values, pids[:-1], table, ["EQ"], "per_stimulus")


class TestCenteredSvd:
    """``centered_svd`` checks and factors a design; every fit reads that factor."""

    @staticmethod
    def _data(seed=60, n=24, d=9):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) + 5.0
        return X, X @ rng.normal(size=d) + rng.normal(scale=0.1, size=n)

    def test_factor_reconstructs_centered_block(self):
        X, _ = self._data()
        f = centered_svd(X)
        np.testing.assert_array_equal(f.mean, X.mean(axis=0))
        assert f.shape == X.shape
        np.testing.assert_allclose((f.u * f.s) @ f.vh, X - X.mean(axis=0), atol=1e-12)

    @staticmethod
    def _worn(X, y):
        """A factor of ``X`` that every fit has already read, checked unchanged."""
        f = centered_svd(X)
        before = {name: getattr(f, name).copy() for name in ("mean", "u", "s", "vh")}
        fit_pca(f, k=4)
        fit_pcr(f, y, k=5)
        fit_bayes_ridge(f, y)
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(f, name), value, err_msg=name)
        return f

    def test_pca_from_factor_identical(self):
        X, y = self._data()
        a, b = fit_pca(centered_svd(X), k=4), fit_pca(self._worn(X, y), k=4)
        for field in ("mean", "components", "explained_variance"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_pcr_from_factor_identical(self):
        X, y = self._data()
        a, b = fit_pcr(centered_svd(X), y, k=5), fit_pcr(self._worn(X, y), y, k=5)
        assert vars(a).keys() == vars(b).keys() == {"kind", "weights", "x_mean", "intercept"}
        for name, value in vars(a).items():
            np.testing.assert_array_equal(getattr(b, name), value, err_msg=name)

    def test_bayes_from_factor_identical(self):
        X, y = self._data()
        a, b = fit_bayes_ridge(centered_svd(X), y), fit_bayes_ridge(self._worn(X, y), y)
        for field in ("weights", "x_mean"):
            np.testing.assert_array_equal(getattr(a.model, field), getattr(b.model, field))
        assert (a.alpha, a.lambda_, a.gamma, a.model.intercept, a.converged, a.iterations) == (
            b.alpha, b.lambda_, b.gamma, b.model.intercept, b.converged, b.iterations)

    def test_one_factor_serves_several_targets(self):
        X, y = self._data()
        f = centered_svd(X)
        for target in (y, -2.0 * y + 1.0, np.sin(y)):
            np.testing.assert_array_equal(
                fit_bayes_ridge(f, target).model.weights,
                fit_bayes_ridge(centered_svd(X), target).model.weights)

    def test_factor_rejects_bad_blocks(self):
        X, _ = self._data()
        X[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            centered_svd(X)
        with pytest.raises(ValueError, match="at least 2"):
            centered_svd(np.ones((1, 4)))

    def test_checks_run_on_factor_path(self):
        X, y = self._data()
        f = centered_svd(X)
        with pytest.raises(ValueError, match="k out of range"):
            fit_pca(f, k=24)
        with pytest.raises(ValueError, match="k out of range"):
            fit_pcr(f, y, k=0)
        with pytest.raises(ValueError, match="y length"):
            fit_pcr(f, y[:-1], k=3)
        with pytest.raises(ValueError, match="y length"):
            fit_bayes_ridge(f, y[:-1])
        y_bad = y.copy()
        y_bad[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_bayes_ridge(f, y_bad)
        # rank-1 design: the second principal direction has zero scores
        flat = centered_svd(np.outer(np.arange(20.0), np.ones(4)))
        with pytest.raises(ValueError, match="degenerate"):
            fit_pcr(flat, np.arange(20.0), k=2)

    def test_gamma_is_effective_dof(self):
        X, y = self._data()
        f = centered_svd(X)
        fit = fit_bayes_ridge(f, y)
        e = f.s ** 2
        expected = float(np.sum(e / (e + fit.lambda_ / fit.alpha)))
        assert fit.gamma == expected
        assert 0.0 < fit.gamma <= min(X.shape)


class TestTraitTable:
    def test_round_trip_via_csv(self, tmp_path):
        path = tmp_path / "traits.csv"
        path.write_text(
            "participant_id,O,C,E,A,N,EQ,SQ\n"
            "P000,1.5,2.5,3.5,4.5,2.0,40,40\n"
            "P001,2.5,3.5,4.5,1.5,3.0,50,30\n"
        )
        table = load_trait_table(path)
        assert table["P000"]["EQ"] == 40.0
        assert table["P001"]["N"] == 3.0

    def test_requires_participant_column(self, tmp_path):
        path = tmp_path / "traits.csv"
        path.write_text("pid,O\nP0,1\n")
        with pytest.raises(ValueError, match="participant_id"):
            load_trait_table(path)

    # (body after the header "participant_id,O,EQ", expected table or the
    # message that names line, participant and column)
    CELLS = [
        ("P0,1.5,40\nP1,2,5e1\n", {"P0": {"O": 1.5, "EQ": 40.0}, "P1": {"O": 2.0, "EQ": 50.0}}),
        ("P0,1.5,\nP1,,3\n", {"P0": {"O": 1.5}, "P1": {"EQ": 3.0}}),
        ("P0,1.5, \n", {"P0": {"O": 1.5}}),
        ("P0,1.5\n", {"P0": {"O": 1.5}}),
        ("P0,1,2\nP1,abc,3\n", ":3: participant 'P1', column 'O': 'abc' is not a finite number"),
        ("P0,1,nan\n", ":2: participant 'P0', column 'EQ': 'nan' is not a finite number"),
        ("P0,-inf,2\n", ":2: participant 'P0', column 'O': '-inf' is not a finite number"),
        ("P0,1,2,3\n", ":2: participant 'P0': more cells than header columns"),
        ("P0,10,1\nP1,20,2\nP0,30,3\n", ":4: participant 'P0' is already on line 2"),
    ]

    def test_byte_order_mark_named(self, tmp_path):
        # as a spreadsheet's "CSV UTF-8" export writes it
        path = tmp_path / "traits.csv"
        path.write_bytes(b"\xef\xbb\xbfparticipant_id,O\nP0,1\n")
        with pytest.raises(ValueError) as info:
            load_trait_table(path)
        assert str(info.value) == (f"{path}: trait table starts with a UTF-8 byte-order mark; "
                                   f"save it as CSV without one")

    @pytest.mark.parametrize("body,expected", CELLS)
    def test_cells(self, tmp_path, body, expected):
        path = tmp_path / "traits.csv"
        path.write_text("participant_id,O,EQ\n" + body)
        if isinstance(expected, dict):
            assert load_trait_table(path) == expected
        else:
            with pytest.raises(ValueError) as info:
                load_trait_table(path)
            assert str(info.value) == f"{path}{expected}"


class TestModelPersistence:
    @pytest.mark.parametrize("kind", ["bayes_ridge", "pcr"])
    def test_round_trip_oracle(self, tmp_path, kind):
        """A saved and reloaded model equals the in-memory one, field by field,
        and both kinds write the same entries."""
        rng = np.random.default_rng(42)
        X = rng.normal(size=(30, 7)) + 3.0
        y = X[:, 0] - 0.5 * X[:, 2] + rng.normal(scale=0.1, size=30)
        f = centered_svd(X)
        model = fit_bayes_ridge(f, y).model if kind == "bayes_ridge" else fit_pcr(f, y, k=4)
        path = tmp_path / "model.json"
        save_model(model, path, provenance={"config_sha256": "abc"})
        loaded = load_model(path)
        assert type(loaded) is LinearModel and loaded.kind == kind

        expected, got = vars(model), vars(loaded)
        assert expected.keys() == got.keys()
        for name, value in expected.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got[name], value, err_msg=name)
            else:
                assert got[name] == value, name
        rows = rng.normal(size=(10, 7)) + 3.0
        np.testing.assert_array_equal(predict_means(loaded, rows), predict_means(model, rows))
        doc = json.loads(path.read_text())
        assert set(doc) == {"kind", "weights", "x_mean", "intercept", "provenance"}

    def test_former_bayes_file_loads(self, tmp_path):
        # a Bayesian-ridge file in the former layout, with its evidence fit and factor
        rng = np.random.default_rng(43)
        X = rng.normal(size=(30, 5))
        fit = fit_bayes_ridge(centered_svd(X), X[:, 1] + rng.normal(scale=0.1, size=30))
        current, former = tmp_path / "model.json", tmp_path / "model_former.json"
        save_model(fit.model, current)
        doc = json.loads(current.read_text())
        doc.update({"alpha": fit.alpha, "lambda": fit.lambda_, "converged": fit.converged,
                    "iterations": fit.iterations,
                    "factor": {"eigenvalues": (centered_svd(X).s ** 2).tolist()}})
        former.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        a, b = load_model(current), load_model(former)
        assert vars(a).keys() == vars(b).keys()
        for name, value in vars(a).items():
            np.testing.assert_array_equal(getattr(b, name), value, err_msg=name)

    def test_former_pcr_file_rejected_naming_the_file(self, tmp_path):
        # a PCR file in the former layout: a k-vector of weights in basis space
        path = tmp_path / "model_O.json"
        path.write_text(json.dumps({"kind": "pcr", "intercept": 1.0, "weights": [0.5],
                                    "basis": {"mean": [0.0], "components": [[1.0]]}}))
        with pytest.raises(ValueError, match=r"model_O\.json: pcr model file has no 'x_mean'"):
            load_model(path)
