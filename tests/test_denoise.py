"""Energy-model evaluation and minimization."""

import numpy as np
import pytest

from helpers import laplacian_basis, random_graph, traced_peak_mb

from mdgsp import (
    EbemParams,
    MdgspError,
    closed_form_sweep,
    ebem_energy,
    ebem_minimize,
    matrices,
    standard_graph,
    total_directional_variation,
)
from mdgsp import denoise
from mdgsp.denoise import _ebem_gradient


def grids(n1=4, n2=5):
    return standard_graph("path", n1), standard_graph("path", n2)


def test_params_reject_nonconvex_and_negative():
    with pytest.raises(MdgspError):
        EbemParams(p=0.5)
    with pytest.raises(MdgspError):
        EbemParams(q1=0.9)
    with pytest.raises(MdgspError):
        EbemParams(gamma1=-0.1)


@pytest.mark.parametrize("field", ["p", "q1", "q2", "gamma1", "gamma2"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_a_nonfinite_value(field, value):
    with pytest.raises(MdgspError, match="must be finite"):
        EbemParams(**{field: value})


def test_energy_zero_for_constant_fixed_point():
    g1, g2 = grids()
    x = np.full((4, 5), 2.0)
    params = EbemParams(p=2, gamma1=0.7, gamma2=0.3, q1=2, q2=2)
    assert ebem_energy(x, x, g1, g2, params) == 0.0


def test_energy_fidelity_only_when_gammas_zero():
    rng = np.random.default_rng(0)
    g1, g2 = grids()
    x, y = rng.standard_normal((2, 4, 5))
    for p in (1.0, 1.5, 2.0, 3.0):
        e = ebem_energy(x, y, g1, g2, EbemParams(p=p))
        assert e == pytest.approx(np.sum(np.abs(x - y) ** p), rel=1e-12)


def test_quadratic_energy_matches_variation_module():
    # two independent code paths: regularizers equal gamma_n * S2^(n)
    rng = np.random.default_rng(1)
    g1, g2 = grids()
    x, y = rng.standard_normal((2, 4, 5))
    params = EbemParams(p=2, gamma1=0.4, gamma2=1.2, q1=2, q2=2)
    e = ebem_energy(x, y, g1, g2, params)
    s1 = total_directional_variation(x, g1, g2, 1).total
    s2 = total_directional_variation(x, g1, g2, 2).total
    expected = np.sum((x - y) ** 2) + 0.4 * s1 + 1.2 * s2
    assert e == pytest.approx(expected, rel=1e-12)


def test_minimize_gammas_zero_returns_observation_exactly():
    rng = np.random.default_rng(2)
    g1, g2 = grids()
    y = rng.standard_normal((4, 5))
    rep = ebem_minimize(y, g1, g2, EbemParams(p=2))
    assert np.array_equal(rep.minimizer, y)
    assert rep.energy == 0.0
    assert rep.method == "closed_form"


def test_minimize_large_gamma_goes_to_mean():
    rng = np.random.default_rng(3)
    g1, g2 = grids()
    y = rng.standard_normal((4, 5))
    params = EbemParams(p=2, gamma1=1e6, gamma2=1e6, q1=2, q2=2)
    rep = ebem_minimize(y, g1, g2, params)
    assert np.abs(rep.minimizer - y.mean()).max() < 1e-4


def test_closed_form_matches_dense_solve_oracle():
    rng = np.random.default_rng(4)
    g1, g2 = grids()
    L1, L2 = matrices(g1).L, matrices(g2).L
    y = rng.standard_normal((4, 5))
    params = EbemParams(p=2, gamma1=0.3, gamma2=1.1, q1=2, q2=2)
    rep = ebem_minimize(y, g1, g2, params)
    assert rep.method == "closed_form"
    system = np.eye(20) + 0.3 * np.kron(L1, np.eye(5)) + 1.1 * np.kron(np.eye(4), L2)
    oracle = np.linalg.solve(system, y.reshape(-1)).reshape(4, 5)
    assert np.abs(rep.minimizer - oracle).max() < 1e-8


def test_closed_form_reuses_precomputed_bases_exactly():
    rng = np.random.default_rng(12)
    g1, g2 = grids()
    y = rng.standard_normal((4, 5))
    params = EbemParams(p=2, gamma1=0.3, gamma2=1.1, q1=2, q2=2)
    fresh = ebem_minimize(y, g1, g2, params)
    (reused,) = closed_form_sweep(y, g1, g2, [params], laplacian_basis(g1), laplacian_basis(g2))
    assert np.array_equal(fresh.minimizer, reused.minimizer)


def test_closed_form_sweep_yields_the_single_point_solves():
    rng = np.random.default_rng(13)
    g1, g2 = grids()
    y = rng.standard_normal((4, 5))
    sweep = [EbemParams(gamma1=a, gamma2=b) for a in (0.0, 0.4) for b in (0.0, 2.5)]
    for params, rep in zip(sweep, closed_form_sweep(y, g1, g2, sweep), strict=True):
        one = ebem_minimize(y, g1, g2, params)
        assert np.array_equal(rep.minimizer, one.minimizer)
        assert (rep.energy, rep.iterations, rep.method) == (one.energy, 0, "closed_form")


def test_closed_form_sweep_refuses_a_regularized_nonquadratic_point():
    g1, g2 = grids()
    sweep = closed_form_sweep(np.zeros((4, 5)), g1, g2,
                              [EbemParams(q1=1.5), EbemParams(gamma1=1.0, q1=1.5)])
    assert next(sweep).energy == 0.0  # no regularization: y itself
    with pytest.raises(MdgspError, match="closed form"):
        next(sweep)


def test_closed_form_denominator_never_degenerates():
    g1, g2 = grids()
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    denom = 1.0 + 7.0 * b1.values[:, None] + 3.0 * b2.values[None, :]
    assert denom.min() >= 1.0


def test_forced_gradient_reaches_closed_form_energy():
    rng = np.random.default_rng(5)
    g1, g2 = grids()
    y = rng.standard_normal((4, 5))
    params = EbemParams(p=2, gamma1=0.3, gamma2=1.1, q1=2, q2=2)
    closed = ebem_minimize(y, g1, g2, params)
    grad = ebem_minimize(y, g1, g2, params, force_gradient=True)
    assert grad.method == "gradient"
    assert grad.converged
    assert abs(grad.energy - closed.energy) <= 1e-4 * max(1.0, closed.energy)


def test_smooth_nonquadratic_descends_and_beats_observation():
    rng = np.random.default_rng(6)
    g1, g2 = grids(3, 4)
    y = rng.standard_normal((3, 4))
    params = EbemParams(p=2, gamma1=0.5, gamma2=0.5, q1=1.5, q2=3.0)
    rep = ebem_minimize(y, g1, g2, params, max_iter=20_000, tol=1e-12)
    assert rep.energy <= ebem_energy(y, y, g1, g2, params) + 1e-12
    g = np.abs(rep.minimizer - y).max()
    assert g > 0  # regularizers pull away from the observation


def test_q1_subgradient_against_cvxpy_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(7)
    g1, g2 = grids(3, 3)
    y = rng.standard_normal((3, 3))
    params = EbemParams(p=2, gamma1=0.6, gamma2=0.0, q1=1.0, q2=2.0)
    rep = ebem_minimize(y, g1, g2, params, max_iter=30_000, tol=1e-12)

    x = cvxpy.Variable((3, 3))
    expr = cvxpy.sum_squares(x - y)
    for i, j in g1.edges:
        w = g1.weight(i, j)
        expr = expr + 0.6 * w * cvxpy.norm1(x[i, :] - x[j, :])
    prob = cvxpy.Problem(cvxpy.Minimize(expr))
    prob.solve(solver=cvxpy.CLARABEL)
    assert rep.energy <= prob.value * (1 + 1e-2) + 1e-6


def test_anisotropy_gamma2_controls_only_its_direction():
    # y varies only along g2: the g1 regularizer is already zero
    rng = np.random.default_rng(8)
    g1, g2 = grids()
    profile = rng.standard_normal(5)
    y = np.tile(profile, (4, 1))
    base = EbemParams(p=2, gamma1=0.0, gamma2=0.5, q1=2, q2=2)
    heavier = EbemParams(p=2, gamma1=0.0, gamma2=2.0, q1=2, q2=2)
    x_base = ebem_minimize(y, g1, g2, base).minimizer
    x_heavy = ebem_minimize(y, g1, g2, heavier).minimizer
    s2_base = total_directional_variation(x_base, g1, g2, 2).total
    s2_heavy = total_directional_variation(x_heavy, g1, g2, 2).total
    assert s2_heavy < s2_base
    with_g1 = EbemParams(p=2, gamma1=5.0, gamma2=0.5, q1=2, q2=2)
    x_with_g1 = ebem_minimize(y, g1, g2, with_g1).minimizer
    assert np.abs(x_with_g1 - x_base).max() < 1e-10
    assert total_directional_variation(x_with_g1, g1, g2, 1).total < 1e-20


def test_isotropic_parameters_reproduce_single_gamma_energy():
    # gamma1 = gamma2 = gamma, q1 = q2 = q collapses to the isotropic
    # product-graph energy: fidelity + gamma/2 * sum over product edges
    rng = np.random.default_rng(9)
    g1, g2 = grids(3, 4)
    x, y = rng.standard_normal((2, 3, 4))
    gamma, q = 0.8, 2.0
    params = EbemParams(p=2, gamma1=gamma, gamma2=gamma, q1=q, q2=q)
    e = ebem_energy(x, y, g1, g2, params)
    from mdgsp import cartesian_product

    pg = cartesian_product(g1, g2).graph
    vec = x.reshape(-1)
    pair_sum = 0.0
    for i in range(pg.n):
        for j in range(pg.n):
            wij = pg.weight(i, j)
            if wij > 0:
                pair_sum += wij * abs(vec[i] - vec[j]) ** q
    expected = np.sum((x - y) ** 2) + gamma / 2 * pair_sum
    assert e == pytest.approx(expected, rel=1e-12)


def test_nonconvergence_is_reported_not_raised():
    rng = np.random.default_rng(10)
    g1, g2 = grids(3, 3)
    y = rng.standard_normal((3, 3))
    params = EbemParams(p=2, gamma1=1.0, gamma2=1.0, q1=1.0, q2=1.0)
    rep = ebem_minimize(y, g1, g2, params, max_iter=5, tol=1e-14)
    assert not rep.converged
    assert rep.iterations == 5


def test_q1_diminishing_step_fallback_reports_its_own_energy(monkeypatch):
    # an infinite Armijo constant accepts no line-search step, so every move
    # away from y is the fallback's diminishing step 1 / (|g| (1 + it)); a p = 2,
    # q = 1 solve takes the subgradient loop only when forced to
    monkeypatch.setattr(denoise, "_ARMIJO_C", np.inf)
    g1, g2 = standard_graph("path", 4), standard_graph("cycle", 5)
    y = np.random.default_rng(11).standard_normal((4, 5))
    params = EbemParams(p=2, gamma1=0.8, gamma2=0.8, q1=1.0, q2=1.0)
    rep = ebem_minimize(y, g1, g2, params, max_iter=6, force_gradient=True)
    assert rep.method == "gradient" and rep.iterations == 6 and not rep.converged
    assert not np.array_equal(rep.minimizer, y)
    assert rep.energy < ebem_energy(y, y, g1, g2, params)
    assert rep.energy.hex() == ebem_energy(rep.minimizer, y, g1, g2, params).hex()


@pytest.mark.parametrize("p, nonunique", [(2.0, False), (1.0, True)])
def test_only_an_l1_fidelity_may_leave_the_minimizer_nonunique(p, nonunique):
    # with p > 1 the fidelity term is strictly convex, so the minimizer is unique
    # however flat the q = 1 energy runs
    rng = np.random.default_rng(11)
    g1, g2 = grids()
    y = rng.standard_normal((4, 5))
    rep = ebem_minimize(y, g1, g2, EbemParams(p=p, gamma1=0.6, gamma2=0.4, q1=1, q2=1),
                        max_iter=300)
    assert rep.method == ("dual" if p == 2.0 else "gradient")
    assert rep.maybe_nonunique is nonunique


def _dense_energy(x, y, g1, g2, params):
    # printed definition: each regularizer is (1/2) sum over ordered pairs
    e = np.sum(np.abs(x - y) ** params.p)
    d1 = np.abs(x[:, None, :] - x[None, :, :]) ** params.q1  # (i1, j1, i2)
    d2 = np.abs(x[:, :, None] - x[:, None, :]) ** params.q2  # (i1, i2, j2)
    e += params.gamma1 * 0.5 * np.sum(g1.w[:, :, None] * d1)
    e += params.gamma2 * 0.5 * np.sum(g2.w[None, :, :] * d2)
    return e


def _dense_gradient(x, y, g1, g2, params):
    def phi(t, q):
        return np.abs(t) ** (q - 1.0) * np.sign(t)

    d1 = x[:, None, :] - x[None, :, :]
    d2 = x[:, :, None] - x[:, None, :]
    return (params.p * phi(x - y, params.p)
            + params.gamma1 * params.q1 * np.sum(g1.w[:, :, None] * phi(d1, params.q1), axis=1)
            + params.gamma2 * params.q2 * np.sum(g2.w[None, :, :] * phi(d2, params.q2), axis=2))


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_edge_energy_and_gradient_match_dense_pairwise_definition(q):
    rng = np.random.default_rng(31)
    for n1, n2 in ((1, 4), (5, 3), (6, 7)):
        g1, g2 = random_graph(rng, n1, p=0.5), random_graph(rng, n2, p=0.5)
        x, y = rng.standard_normal((2, n1, n2))
        # each axis on its own, then both together
        for gamma1, gamma2 in ((0.8, 0.0), (0.0, 1.7), (0.8, 1.7)):
            params = EbemParams(p=1.5, gamma1=gamma1, gamma2=gamma2, q1=q, q2=q)
            e = ebem_energy(x, y, g1, g2, params)
            assert e == pytest.approx(_dense_energy(x, y, g1, g2, params), rel=1e-12)
            grad = _ebem_gradient(x, y, g1, g2, params)
            oracle = _dense_gradient(x, y, g1, g2, params)
            assert np.allclose(grad, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


def test_edge_gradient_matches_central_differences():
    rng = np.random.default_rng(32)
    g1, g2 = random_graph(rng, 5, p=0.6), random_graph(rng, 4, p=0.6)
    x, y = rng.standard_normal((2, 5, 4))
    params = EbemParams(p=1.5, gamma1=0.6, gamma2=1.1, q1=1.5, q2=1.5)
    grad = _ebem_gradient(x, y, g1, g2, params)
    h = 1e-6
    numeric = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        numeric[idx] = (ebem_energy(x + step, y, g1, g2, params)
                        - ebem_energy(x - step, y, g1, g2, params)) / (2 * h)
    assert np.abs(grad - numeric).max() <= 1e-6 * max(1.0, np.abs(grad).max())


def test_energy_memory_stays_edge_sized():
    # a dense (n1, n1, n2) difference tensor would take 64 MB here
    rng = np.random.default_rng(33)
    g1, g2 = standard_graph("cycle", 400), standard_graph("path", 50)
    x, y = rng.standard_normal((2, 400, 50))
    params = EbemParams(p=2, gamma1=0.5, gamma2=0.5, q1=1.5, q2=1.5)
    assert traced_peak_mb(lambda: ebem_energy(x, y, g1, g2, params)) < 10


def test_constant_observation_stops_at_a_zero_gradient():
    # y is its own minimizer: the gradient of every term vanishes at x = y,
    # so the first iteration stops with residual 0 and reports converged
    g1, g2 = grids()
    y = np.full((4, 5), 2.5)
    rep = ebem_minimize(y, g1, g2, EbemParams(q1=1.0, q2=1.5, gamma1=0.4, gamma2=0.7))
    assert not np.any(_ebem_gradient(y, y, g1, g2, EbemParams(q1=1.0, gamma1=0.4)))
    assert rep.method == "gradient" and rep.iterations == 1
    assert rep.converged and rep.residual == 0.0
    assert np.array_equal(rep.minimizer, y) and rep.energy == 0.0


def _dense_incidence(g):
    """Edge-by-vertex difference matrix of g and its edge weights."""
    b = np.zeros((g.edge_count, g.n))
    rows = np.arange(g.edge_count)
    i, j = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    b[rows, i], b[rows, j] = 1.0, -1.0
    return b, g.w[i, j]


def _tv_certificate(y, g1, g2, gamma1, gamma2, iters=50_000):
    """The p = 2, q = 1 energy as a dense function, and a lower bound on its minimum.

    The bound is the dual g(z) = <D^T z, y> - ||D^T z||^2 / 4 over |z_e| <= gamma w_e,
    maximized by FISTA with a function-value restart on dense incidence matrices, with
    the step from the exact largest eigenvalues. Returns (energy, bound, own gap,
    primal point).
    """
    (b1, w1), (b2, w2) = _dense_incidence(g1), _dense_incidence(g2)
    c1 = gamma1 * w1[:, None] * np.ones((1, g2.n))
    c2 = gamma2 * np.ones((g1.n, 1)) * w2[None, :]

    def energy(x):
        return (np.sum((x - y) ** 2) + np.sum(c1 * np.abs(b1 @ x))
                + np.sum(c2 * np.abs(x @ b2.T)))

    def adjoint(z1, z2):
        return b1.T @ z1 + z2 @ b2

    def dual(z1, z2):
        v = adjoint(z1, z2)
        return float(np.sum(v * y) - 0.25 * np.sum(v * v))

    top = sum(np.linalg.eigvalsh(b.T @ b).max() if b.size else 0.0 for b in (b1, b2))
    step = 2.0 / top
    z1, z2 = np.zeros_like(c1), np.zeros_like(c2)
    p1, p2, t, best = z1, z2, 1.0, 0.0
    for it in range(1, iters + 1):
        x = y - 0.5 * adjoint(p1, p2)
        n1 = np.clip(p1 + step * (b1 @ x), -c1, c1)
        n2 = np.clip(p2 + step * (x @ b2.T), -c2, c2)
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        p1 = n1 + (t - 1) / t_next * (n1 - z1)
        p2 = n2 + (t - 1) / t_next * (n2 - z2)
        if dual(n1, n2) < dual(z1, z2):
            p1, p2, t_next = n1, n2, 1.0
        z1, z2, t = n1, n2, t_next
        if it % 200 == 0:
            best = max(best, dual(z1, z2))
            x = y - 0.5 * adjoint(z1, z2)
            own_gap = (energy(x) - best) / best
            if own_gap <= 1e-12:
                break
    return energy, best, own_gap, x


TV = EbemParams(p=2, gamma1=0.5, gamma2=0.3, q1=1, q2=1)


@pytest.mark.parametrize("graphs", [
    lambda rng: (standard_graph("path", 16), standard_graph("cycle", 16)),
    lambda rng: (standard_graph("path", 32), standard_graph("cycle", 32)),
    lambda rng: (random_graph(rng, 9, p=0.5), standard_graph("cycle", 7)),
], ids=["16x16", "32x32", "weighted-9x7"])
def test_q1_dual_solve_meets_an_independent_certificate(graphs):
    rng = np.random.default_rng(41)
    g1, g2 = graphs(rng)
    y = rng.standard_normal((g1.n, g2.n))
    rep = ebem_minimize(y, g1, g2, TV)
    energy, bound, own_gap, x = _tv_certificate(y, g1, g2, TV.gamma1, TV.gamma2)
    assert own_gap <= 1e-10
    assert rep.method == "dual" and rep.converged and rep.residual <= denoise.DEFAULT_TOL
    assert (energy(rep.minimizer) - bound) / bound <= 1e-8
    assert rep.energy == pytest.approx(energy(rep.minimizer), rel=1e-12)
    assert rep.energy.hex() == ebem_energy(rep.minimizer, y, g1, g2, TV).hex()
    # the energy is 2-strongly convex, so ||x - x*||^2 <= E(x) - E* <= E(x) - bound
    radius = sum(np.sqrt(max(energy(v) - bound, 0.0)) for v in (rep.minimizer, x))
    assert np.sqrt(np.sum((rep.minimizer - x) ** 2)) <= radius


def test_q1_dual_report_is_a_certificate():
    # converged means the duality gap, reported as the residual, is at most tol;
    # a looser tol stops sooner at a gap that still meets it
    rng = np.random.default_rng(42)
    g1, g2 = standard_graph("path", 12), standard_graph("cycle", 9)
    y = rng.standard_normal((12, 9))
    tight = ebem_minimize(y, g1, g2, TV)
    for tol in (1e-3, 1e-6, 1e-10):
        rep = ebem_minimize(y, g1, g2, TV, tol=tol)
        assert rep.method == "dual" and rep.converged
        assert 0 <= rep.residual <= tol
        assert rep.iterations % denoise._GAP_EVERY == 0 and rep.iterations <= tight.iterations
        assert rep.energy.hex() == ebem_energy(rep.minimizer, y, g1, g2, TV).hex()
        # the gap bounds the distance to the optimum
        assert rep.energy - tight.energy <= tol * rep.energy + 1e-12 * tight.energy
    cut = ebem_minimize(y, g1, g2, TV, max_iter=7)
    assert (cut.iterations, cut.converged) == (7, False) and cut.residual > denoise.DEFAULT_TOL


@pytest.mark.parametrize("gamma2", [0.0, 0.4])
def test_q1_dual_solve_of_an_edgeless_factor_returns_y(gamma2):
    g1, g2 = standard_graph("edgeless", 5), standard_graph("edgeless", 4)
    y = np.random.default_rng(43).standard_normal((5, 4))
    rep = ebem_minimize(y, g1, g2, EbemParams(gamma1=0.7, gamma2=gamma2, q1=1, q2=1))
    assert rep.method == "dual" and rep.converged and rep.iterations == 0
    assert np.array_equal(rep.minimizer, y) and rep.minimizer is not y
    assert rep.energy == 0.0 == rep.residual


def test_q1_dual_solve_with_one_regularized_direction():
    # gamma2 = 0 leaves q2 free: only the regularized directions need q = 1
    rng = np.random.default_rng(44)
    g1, g2 = standard_graph("path", 10), standard_graph("cycle", 6)
    y = rng.standard_normal((10, 6))
    params = EbemParams(gamma1=0.6, gamma2=0.0, q1=1, q2=3)
    rep = ebem_minimize(y, g1, g2, params)
    energy, bound, own_gap, _ = _tv_certificate(y, g1, g2, 0.6, 0.0)
    assert rep.method == "dual" and rep.converged and own_gap <= 1e-10
    assert (energy(rep.minimizer) - bound) / bound <= 1e-8
    # each column is denoised on its own along g1
    column = ebem_minimize(y[:, :1], g1, standard_graph("path", 1), params)
    assert np.abs(column.minimizer[:, 0] - rep.minimizer[:, 0]).max() <= 1e-6


def test_q1_dual_solve_of_a_nonfinite_observation_stops_at_the_first_gap_check():
    g1, g2 = standard_graph("path", 6), standard_graph("cycle", 5)
    y = np.random.default_rng(45).standard_normal((6, 5))
    y[2, 3] = np.nan
    rep = ebem_minimize(y, g1, g2, TV)
    assert rep.method == "dual" and not rep.converged
    assert rep.iterations == denoise._GAP_EVERY and np.isnan(rep.residual)


@pytest.mark.parametrize("force", [False, True], ids=["armijo", "forced-subgradient"])
def test_gradient_solve_of_a_nonfinite_observation_stops_before_the_first_step(force):
    g1, g2 = standard_graph("path", 6), standard_graph("cycle", 5)
    y = np.random.default_rng(45).standard_normal((6, 5))
    y[2, 3] = np.nan
    params = EbemParams(gamma1=0.5, gamma2=0.5, q1=1.5, q2=1.5)
    rep = ebem_minimize(y, g1, g2, params, max_iter=200, force_gradient=force)
    assert rep.method == "gradient" and not rep.converged
    assert rep.iterations == 0 and np.isnan(rep.residual) and np.isnan(rep.energy)


@pytest.mark.parametrize("params", [
    EbemParams(p=1.5, gamma1=0.5, gamma2=0.5, q1=1, q2=1),
    EbemParams(p=2, gamma1=0.5, gamma2=0.5, q1=1, q2=1.5),
], ids=["p1.5", "q2-1.5"])
def test_only_p2_with_every_regularized_q_one_takes_the_dual(params):
    g1, g2 = grids()
    y = np.random.default_rng(46).standard_normal((4, 5))
    assert ebem_minimize(y, g1, g2, params, max_iter=50).method == "gradient"
    forced = EbemParams(p=2, gamma1=0.5, gamma2=0.5, q1=1, q2=1)
    assert ebem_minimize(y, g1, g2, forced, max_iter=50, force_gradient=True).method == "gradient"
