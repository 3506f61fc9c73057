"""Benchmark machinery: mutual-oracle equality and the scaling fit."""

import pytest

from mdgsp import MdgspError, ProductGraph, matrices
from mdgsp.bench import SizeResult, bench_sizes, equality_check, fit_scaling_slope


def test_equality_check_small():
    assert equality_check(16, 16, seed=1) <= 1e-9


def test_equality_check_sixty_four():
    # both benchmark paths produce the same grouped spectra at 64 x 64
    assert equality_check(64, 64, seed=0) <= 1e-9


def test_equality_check_respects_cap():
    with pytest.raises(MdgspError):
        equality_check(128, 128)


def test_bench_sizes_small_materialized():
    rep = bench_sizes([(6, 8)], repetitions=2)
    r = rep.results[0]
    assert r.naive_mode == "materialized"
    assert r.fast_seconds > 0 and r.naive_seconds > 0
    assert r.eig_product_seconds is not None


def test_naive_path_builds_only_the_product_laplacian(monkeypatch):
    # the product Laplacian is the Kronecker sum of the factor Laplacians; building
    # the product's matrices would also build its dense adjacency
    def refuse_products(g):
        assert not isinstance(g, ProductGraph), "built the product graph's matrices"
        return matrices(g)

    monkeypatch.setattr("mdgsp.bench.matrices", refuse_products)
    assert bench_sizes([(6, 8)], repetitions=1).results[0].naive_mode == "materialized"
    assert equality_check(8, 8) <= 1e-9


def test_streamed_mode_above_cap():
    rep = bench_sizes([(72, 72)], repetitions=1)
    assert rep.results[0].naive_mode == "streamed"
    assert rep.results[0].naive_seconds > 0


def test_scaling_slope_of_exact_model():
    results = [
        SizeResult(n, n, 0.0, 1e-9 * (2 * n**3), None, None, "skipped",
                   model_cost=float(2 * n**3))
        for n in (64, 128, 256)
    ]
    slope = fit_scaling_slope(results)
    assert slope == pytest.approx(1.0, abs=1e-9)


def test_doubling_one_factor_tracks_model_cost():
    rep = bench_sizes([(96, 96), (96, 192)], repetitions=9, naive=False)
    t1, t2 = (r.fast_seconds for r in rep.results)
    c1, c2 = (r.model_cost for r in rep.results)
    measured = t2 / t1
    predicted = c2 / c1
    assert measured / predicted < 2.5 and predicted / measured < 2.5
