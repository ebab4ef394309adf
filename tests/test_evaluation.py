import numpy as np
import pytest
from scipy import stats

from movetrait.evaluation import (
    INPUT_KINDS,
    ModelSpec,
    REFERENCE_RESULTS,
    ScoreTable,
    CvResult,
    cross_validate,
    leaked_groups,
    make_fold_plan,
    r2,
    rmse,
    score_table_csv,
    score_table_text,
    spearman,
)


class TestRmse:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0

    def test_hand_value(self):
        got = rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert got == pytest.approx(3.5355339059327378, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=10)
        yh = rng.normal(size=10)
        assert rmse(y + 5.0, yh + 5.0) == pytest.approx(rmse(y, yh), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            rmse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(np.array([]), np.array([]))

    def test_squared_rmse_times_n_is_sse(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.normal(size=15)
            yh = rng.normal(size=15)
            sse = float(np.sum((y - yh) ** 2))
            assert rmse(y, yh) ** 2 * 15 == pytest.approx(sse, rel=1e-9)


class TestR2:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, y) == 1.0

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r2(y, np.full(4, y.mean())) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # SSE = 2, SST = 2
        assert r2(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0])) == pytest.approx(0.0, abs=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            r2(np.full(5, 2.0), np.zeros(5))

    def test_identity_with_rmse(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            y = rng.normal(size=12)
            yh = rng.normal(size=12)
            sst = float(np.sum((y - y.mean()) ** 2))
            identity = 1.0 - (rmse(y, yh) ** 2 * 12) / sst
            assert r2(y, yh) == pytest.approx(identity, abs=1e-9)


class TestSpearman:
    def test_monotone_increasing(self):
        a = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman(a, np.exp(a)) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        a = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman(a, -a**3) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        got = spearman(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 3.0, 2.0, 4.0]))
        assert got == pytest.approx(0.8, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.integers(0, 8, size=25).astype(float)
            b = rng.normal(size=25)
            assert spearman(a, b) == pytest.approx(
                stats.spearmanr(a, b).statistic, abs=1e-12
            )

    def test_zero_rank_variance(self):
        with pytest.raises(ValueError, match="rank variance"):
            spearman(np.full(5, 3.0), np.arange(5.0))

    def test_needs_three(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman(np.zeros(2), np.zeros(2))


class TestFoldPlan:
    def test_partition_and_balance(self):
        plan = make_fold_plan(23, n_folds=5, seed=3)
        sizes = np.bincount(plan.assignments, minlength=5)
        assert sizes.sum() == 23
        assert sizes.max() - sizes.min() <= 1

    def test_same_seed_same_plan(self):
        p1 = make_fold_plan(40, 5, seed=9)
        p2 = make_fold_plan(40, 5, seed=9)
        np.testing.assert_array_equal(p1.assignments, p2.assignments)

    def test_different_seed_different_plan(self):
        p1 = make_fold_plan(40, 5, seed=9)
        p2 = make_fold_plan(40, 5, seed=10)
        assert not np.array_equal(p1.assignments, p2.assignments)

    def test_grouped_no_straddling(self):
        groups = tuple(f"P{i % 11}" for i in range(44))
        plan = make_fold_plan(44, 5, seed=1, groups=groups)
        assert leaked_groups(plan, groups) == 0
        for g in set(groups):
            folds = {int(f) for gg, f in zip(groups, plan.assignments) if gg == g}
            assert len(folds) == 1

    def test_grouped_group_counts_balanced(self):
        groups = tuple(f"P{i % 13}" for i in range(52))
        plan = make_fold_plan(52, 4, seed=2, groups=groups)
        per_fold_groups = [
            len({g for g, f in zip(groups, plan.assignments) if f == fold})
            for fold in range(4)
        ]
        assert max(per_fold_groups) - min(per_fold_groups) <= 1

    def test_ungrouped_plan_leaks_repeated_participants(self):
        groups = tuple(f"P{i % 10}" for i in range(40))
        plan = make_fold_plan(40, 5, seed=0)
        assert leaked_groups(plan, groups) > 0

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="cannot fill"):
            make_fold_plan(3, 5, seed=0)

    def test_too_few_groups(self):
        with pytest.raises(ValueError, match="groups cannot fill"):
            make_fold_plan(10, 5, seed=0, groups=tuple("ab" * 5))


class TestCrossValidate:
    def test_planted_signal_recovered(self):
        rng = np.random.default_rng(100)
        X = rng.normal(size=(100, 8))
        y = X @ rng.normal(size=8)
        plan = make_fold_plan(100, 5, seed=0)
        res = cross_validate(X, y, [ModelSpec("bayes_ridge")], plan)[0][0]
        assert res.mean_r2 >= 0.99
        assert len(res.fold_r2) == 5

    def test_shuffled_target_scores_low(self):
        rng = np.random.default_rng(100)
        X = rng.normal(size=(100, 8))
        y = X @ rng.normal(size=8)
        shuffled = y.copy()
        np.random.default_rng(1).shuffle(shuffled)
        plan = make_fold_plan(100, 5, seed=0)
        res = cross_validate(X, shuffled, [ModelSpec("bayes_ridge")], plan)[0][0]
        assert res.mean_r2 <= 0.1

    def test_grouping_respected_inside_cv(self):
        rng = np.random.default_rng(101)
        groups = tuple(f"P{i // 4}" for i in range(80))
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        plan = make_fold_plan(80, 5, seed=4, groups=groups)
        cross_validate(X, y, [ModelSpec("bayes_ridge")], plan)  # must not raise
        assert leaked_groups(plan, groups) == 0

    def test_normalization_stats_fit_on_train_rows_only(self):
        # a validation-only outlier column must not affect training stats;
        # compare against a manual per-fold refit
        from movetrait.features import apply_gaussian_stats, gaussian_stats
        from movetrait.regression import centered_svd, fit_bayes_ridge, predict_means

        rng = np.random.default_rng(102)
        X = rng.normal(size=(40, 4))
        y = X @ np.array([1.0, -1.0, 0.5, 2.0]) + rng.normal(scale=0.05, size=40)
        plan = make_fold_plan(40, 4, seed=7)
        res = cross_validate(X, y, [ModelSpec("bayes_ridge")], plan, normalize=True)[0][0]
        f = 0
        val = plan.assignments == f
        mu, sd = gaussian_stats(X[~val])
        factor = centered_svd(apply_gaussian_stats(X[~val], mu, sd))
        model = fit_bayes_ridge(factor, y[~val]).model
        pred = predict_means(model, apply_gaussian_stats(X[val], mu, sd))
        expected = rmse(y[val], pred)
        assert res.fold_rmse[f] == pytest.approx(expected, rel=1e-12)

    def test_pcr_inside_cv(self):
        rng = np.random.default_rng(104)
        X = rng.normal(size=(60, 6))
        y = X @ rng.normal(size=6) + rng.normal(scale=0.01, size=60)
        plan = make_fold_plan(60, 5, seed=2)
        res = cross_validate(X, y, [ModelSpec("pcr", k=6)], plan)[0][0]
        assert res.mean_r2 >= 0.99

    def test_plan_must_cover_samples(self):
        plan = make_fold_plan(10, 5, seed=0)
        with pytest.raises(ValueError, match="cover"):
            cross_validate(np.zeros((12, 3)), np.zeros(12), [ModelSpec("bayes_ridge")], plan)

    def test_single_sample_fold_rejected(self):
        # 7 samples over 5 folds leaves folds with one validation sample
        rng = np.random.default_rng(106)
        X = rng.normal(size=(7, 3))
        y = rng.normal(size=7)
        plan = make_fold_plan(7, 5, seed=0)
        with pytest.raises(ValueError, match="fewer than 2 validation"):
            cross_validate(X, y, [ModelSpec("bayes_ridge")], plan)

    def test_determinism_same_seed_same_scores(self):
        rng = np.random.default_rng(105)
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        plan1 = make_fold_plan(50, 5, seed=11)
        plan2 = make_fold_plan(50, 5, seed=11)
        r1 = cross_validate(X, y, [ModelSpec("bayes_ridge")], plan1)[0][0]
        r2_ = cross_validate(X, y, [ModelSpec("bayes_ridge")], plan2)[0][0]
        assert r1.fold_rmse == r2_.fold_rmse
        assert r1.fold_r2 == r2_.fold_r2


def _separate_fit_oracle(X, Y, spec, plan, trait, normalize):
    """One (spec, trait) cell fitted fold by fold, each fit on its own factor,
    as before sharing."""
    from movetrait.features import apply_gaussian_stats, gaussian_stats
    from movetrait.regression import (
        _HYPER_MAX, _HYPER_MIN, centered_svd, fit_bayes_ridge, fit_pcr, predict_means,
    )

    y = Y[:, trait].copy()
    fold_rmse, fold_r2, converged, iterations, clamped = [], [], [], [], []
    outside, biggest = 0, 0.0
    all_pred = np.empty_like(y)
    for f in range(plan.n_folds):
        val = plan.assignments == f
        xtr, xva = X[~val], X[val]
        if normalize:
            for col in range(X.shape[1]):
                lo, hi = min(xtr[:, col]), max(xtr[:, col])
                outside += sum(not lo <= v <= hi for v in xva[:, col])
            mu, sd = gaussian_stats(xtr)
            xtr = apply_gaussian_stats(xtr, mu, sd)
            xva = apply_gaussian_stats(xva, mu, sd)
            biggest = max(biggest, *(abs(v) for v in xva.ravel()))
        if spec.kind == "pcr":
            model = fit_pcr(centered_svd(xtr), y[~val], spec.k)
        else:
            fit = fit_bayes_ridge(centered_svd(xtr), y[~val], tol=spec.tol, max_iter=spec.max_iter)
            model = fit.model
            converged.append(fit.converged)
            iterations.append(fit.iterations)
            clamped.append(fit.alpha in (_HYPER_MIN, _HYPER_MAX)
                           or fit.lambda_ in (_HYPER_MIN, _HYPER_MAX))
        pred = predict_means(model, xva)
        all_pred[val] = pred
        fold_rmse.append(rmse(y[val], pred))
        fold_r2.append(r2(y[val], pred))
    diagnostics = {}
    if spec.kind == "bayes_ridge":
        diagnostics.update(converged_folds=sum(converged), max_iterations=max(iterations),
                           clamped_folds=sum(clamped))
    if normalize:
        diagnostics.update(out_of_range=outside, max_abs_z=biggest)
    return CvResult(
        fold_rmse=tuple(fold_rmse),
        fold_r2=tuple(fold_r2),
        mean_rmse=float(np.mean(fold_rmse)),
        mean_r2=float(np.mean(fold_r2)),
        pooled_rmse=rmse(y, all_pred),
        pooled_r2=r2(y, all_pred),
        diagnostics=diagnostics,
    )


class TestSharedFactor:
    SPECS = [ModelSpec("pcr", k=4), ModelSpec("bayes_ridge"), ModelSpec("pcr", k=9)]

    @staticmethod
    def _data():
        rng = np.random.default_rng(107)
        X = rng.normal(size=(45, 14)) * np.linspace(0.5, 3.0, 14) + 2.0
        W = rng.normal(size=(14, 3))
        Y = X @ W + rng.normal(scale=0.5, size=(45, 3))
        groups = tuple(f"P{i // 3}" for i in range(45))
        return X, Y, make_fold_plan(45, 5, seed=3, groups=groups)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_every_cell_equals_separate_fits(self, normalize):
        X, Y, plan = self._data()
        results = cross_validate(X, Y, self.SPECS, plan, normalize=normalize)
        assert len(results) == len(self.SPECS)
        for spec, per_trait in zip(self.SPECS, results):
            assert len(per_trait) == Y.shape[1]
            for trait, got in enumerate(per_trait):
                assert got == _separate_fit_oracle(X, Y, spec, plan, trait, normalize)

    def test_interpolating_folds_counted_as_clamped(self):
        # noiseless targets and more features than rows: each training block
        # is fitted exactly, so the noise precision alpha runs onto _HYPER_MAX
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 50))
        Y = X @ rng.normal(size=(50, 2))
        plan = make_fold_plan(20, 4, seed=0)
        specs = [ModelSpec("bayes_ridge", tol=1e-9, max_iter=1000), ModelSpec("pcr", k=5)]
        bayes, pcr = cross_validate(X, Y, specs, plan)
        for trait, got in enumerate(bayes):
            assert got.diagnostics["clamped_folds"] >= 1
            assert got == _separate_fit_oracle(X, Y, specs[0], plan, trait, False)
        assert [got.diagnostics.get("clamped_folds") for got in pcr] == [None, None]
        # with noise and fewer features than training rows, no fold is clamped
        noisy = cross_validate(X[:, :8], Y + rng.normal(size=Y.shape), specs[:1], plan)[0]
        assert [got.diagnostics["clamped_folds"] for got in noisy] == [0, 0]

    def test_one_svd_per_fold(self, monkeypatch):
        X, Y, plan = self._data()
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        cross_validate(X, Y, self.SPECS, plan, normalize=True)
        assert len(calls) == plan.n_folds
        calls.clear()
        cross_validate(X, Y[:, 0], self.SPECS[:1], plan)
        assert len(calls) == plan.n_folds

    def test_vector_target_is_one_column(self):
        X, Y, plan = self._data()
        col = cross_validate(X, Y[:, 1:2], self.SPECS, plan)
        vec = cross_validate(X, Y[:, 1], self.SPECS, plan)
        assert col == vec

    def test_bad_spec_rejected_before_any_fit(self, monkeypatch):
        X, Y, plan = self._data()
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("fitted"))
        with pytest.raises(ValueError, match="unknown model kind"):
            cross_validate(X, Y, [ModelSpec("bayes_ridge"), ModelSpec("lasso")], plan)
        with pytest.raises(ValueError, match="component count"):
            cross_validate(X, Y, [ModelSpec("bayes_ridge"), ModelSpec("pcr")], plan)

    def test_smallest_train_size(self):
        plan = make_fold_plan(7, 3, seed=0)  # folds of 3, 2 and 2 rows
        assert plan.smallest_train_size == 4


def _toy_table():
    res = CvResult(
        fold_rmse=(1.0, 2.0, 3.0, 4.0, 5.0),
        fold_r2=(0.1, 0.2, 0.3, 0.4, 0.5),
        mean_rmse=3.0,
        mean_r2=0.3,
        pooled_rmse=3.25,
        pooled_r2=0.25,
    )
    cells = {
        (kind, model, "EQ"): res
        for kind in INPUT_KINDS
        for model in ("pcr", "bayes_ridge")
    }
    return ScoreTable(cells=cells, n_folds=5, seed=0, grouping="participant")


class TestScoreTable:
    def test_csv_has_row_per_combination(self):
        text = score_table_csv(_toy_table())
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 8
        assert lines[0].startswith("input,model,trait,mean_rmse,mean_r2,rmse_fold1,")
        assert lines[0].endswith(",r2_fold5,pooled_rmse,pooled_r2")
        assert lines[1] == ("position,pcr,EQ,3,0.29999999999999999,1,2,3,4,5,"
                            "0.10000000000000001,0.20000000000000001,0.29999999999999999,"
                            "0.40000000000000002,0.5,3.25,0.25")

    def test_text_includes_reference_values(self):
        text = score_table_text(_toy_table())
        # EQ position Bayesian reference cell
        assert "2.722" in text and "0.771" in text
        assert "Position(N)" in text
        assert "comparison only" in text

    def test_reference_table_never_asserted(self):
        # the constants exist for rendering; sanity-check their shape only
        assert ("position", "bayes_ridge") in REFERENCE_RESULTS["EQ"]
        for trait in ("O", "C", "E", "A", "N"):
            assert all(model == "bayes_ridge" for _, model in REFERENCE_RESULTS[trait])
