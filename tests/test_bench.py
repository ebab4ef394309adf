import pytest

from movetrait.bench import (
    BenchRecord,
    assert_monotone,
    assert_under_timeout,
    bench_correntropy,
    bench_load_take,
    bench_pca,
    bench_bayes_ridge,
    records_csv,
    records_markdown,
)


def test_record_requires_three_repetitions():
    with pytest.raises(ValueError, match="3 repetitions"):
        BenchRecord("op", "1x1", 0.1, repetitions=2, machine="m")


def test_correntropy_time_grows_with_frames():
    # 16x the work between the two sizes keeps the ordering robust
    records = bench_correntropy(frame_counts=(100, 1600), repetitions=3)
    assert len(records) == 2
    assert_monotone(records)
    assert records[0].repetitions == 3


def test_monotone_violation_detected():
    mk = lambda s: BenchRecord("op", "x", s, 3, "m")
    with pytest.raises(RuntimeError, match="not monotone"):
        assert_monotone([mk(2.0), mk(1.0)])


def test_timeout_ceiling():
    rec = BenchRecord("fit", "10x10", 5.0, 3, "m")
    assert_under_timeout([rec], timeout_s=10.0)
    with pytest.raises(RuntimeError, match="ceiling"):
        assert_under_timeout([rec], timeout_s=1.0)


def test_small_suite_smoke(tmp_path):
    parse = bench_load_take(frames=50, repetitions=3)
    kernel = bench_correntropy(frame_counts=(50, 400), repetitions=3)
    ridge = bench_bayes_ridge(row_counts=(20,), dim=50, repetitions=3)
    pca = bench_pca(ks=(3,), rows=20, dim=30, repetitions=3)
    records = parse + kernel + ridge + pca
    csv_text = records_csv(records)
    assert csv_text.startswith("operation,shape,median_seconds")
    assert len(csv_text.strip().split("\n")) == 1 + 5
    md = records_markdown(records)
    assert "| correntropy_matrix |" in md
    assert "| load_take | 50x63 |" in md
