"""Extended basic energy model on product graphs: evaluation and minimization.

The energy is a p-norm fidelity term plus one weighted edge-difference
regularizer per factor direction, each with its own weight gamma_n and
exponent q_n. Each regularizer and its gradient go through the factor's
weighted incidence operator D (`Graph.incidence`): sum_e w_e |D X|^q and
D^T (w phi(D X)), so they cost O(|E_n| * n_other) time and memory. D works
along the leading axis: the second factor's terms read one contiguous copy
of X^T and transpose their gradient back. Both work in place on their own
temporaries and hold at most two edge-sized arrays at a time, besides that
copy. On small grids the count of numpy calls, not the arithmetic, sets the
cost: at path(64) x cycle(64), one BLAS thread on a 2-core x86 host, an
energy evaluation takes about 70 us and a gradient about 85 us.

`ebem_minimize` takes one of four routes (`SolveReport.method`): the
all-quadratic case diagonalizes in the 2-D spectral domain and is solved
in closed form ("closed_form"); p = 2 with q = 1 on every regularized
direction, an anisotropic total-variation problem, is solved on its
box-constrained dual with a certified gap ("dual"); smooth exponents run
Armijo gradient descent, and the remaining exponent-1 cases Armijo
subgradient descent ("gradient").
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import MdgspError
from .graphs import Graph, matrices
from .spectral import EigenBasis, eigenbasis
from .transforms import Spectrum2D, _check_shape, gft_2d, inverse_gft_2d

DEFAULT_MAX_ITER = 100_000
DEFAULT_TOL = 1e-10
_ARMIJO_C = 1e-4
_STEP_FLOOR = 1e-16
# iterations between two duality-gap checks of the dual solver
_GAP_EVERY = 10


@dataclass(frozen=True)
class EbemParams:
    """Fidelity exponent p and per-direction regularization (gamma, q).

    All must be finite. Exponents must be >= 1 so that the energy is
    convex; gammas must be nonnegative.
    """

    p: float = 2.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    q1: float = 2.0
    q2: float = 2.0

    def __post_init__(self):
        if not np.isfinite([self.p, self.gamma1, self.gamma2, self.q1, self.q2]).all():
            raise MdgspError("exponents p, q1, q2 and weights gamma1, gamma2 must be finite")
        if self.p < 1 or self.q1 < 1 or self.q2 < 1:
            raise MdgspError("exponents p, q1, q2 must all be >= 1 (convexity)")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise MdgspError("regularization weights must be nonnegative")

    @property
    def regularized(self) -> bool:
        return self.gamma1 != 0.0 or self.gamma2 != 0.0

    @property
    def all_quadratic(self) -> bool:
        return self.p == 2.0 and self.q1 == 2.0 and self.q2 == 2.0


@dataclass(frozen=True)
class SolveReport:
    """One solve's minimizer and how it was reached.

    `method` names the route and sets what `residual` and `converged` mean:
    "closed_form": residual 0, always converged; "dual": residual is the
    relative duality gap (E(x) - g(z)) / E(x) at the last check, which
    bounds E(x) - E* relative to E(x), and converged means it is <= tol;
    "gradient": residual is the last relative energy decrease and converged
    means it fell below tol, which for an exponent of 1 certifies no
    optimality gap; a start whose energy is not finite (a NaN or inf in y)
    is returned at once with residual NaN, 0 iterations and converged False.
    """

    minimizer: np.ndarray
    energy: float
    iterations: int
    residual: float
    method: str
    converged: bool = True
    maybe_nonunique: bool = False


def _abs_pow(t: np.ndarray, q: float) -> np.ndarray:
    """|t|^q, computed in t's own storage."""
    np.abs(t, out=t)
    if q != 1.0:
        t **= q
    return t


def _edge_energy(x: np.ndarray, g: Graph, q: float) -> float:
    # x has g's vertices first. (1/2) sum_{i,j} w(i,j) |x_i. - x_j.|^q counts
    # each edge twice, so it equals sum_e w_e sum_along_other |(D x)_e.|^q
    d = g.incidence
    return float(d.weigh(_abs_pow(d.apply(x), q)).sum())


def ebem_energy(x: np.ndarray, y: np.ndarray, g1: Graph, g2: Graph, params: EbemParams) -> float:
    """Evaluate the printed energy exactly, including both 1/2 factors."""
    x = _check_shape(x, (g1.n, g2.n), "signal", np.float64)
    y = _observation(y, g1, g2)
    e = float(_abs_pow(x - y, params.p).sum())
    if params.gamma1 > 0:
        e += params.gamma1 * _edge_energy(x, g1, params.q1)
    if params.gamma2 > 0:
        e += params.gamma2 * _edge_energy(np.ascontiguousarray(x.T), g2, params.q2)
    return e


def _phi(t: np.ndarray, q: float) -> np.ndarray:
    # derivative of |t|^q up to the factor q: |t|^(q-1) * sign(t), which may
    # overwrite t; for q = 1 this is a subgradient choice with value 0 at t = 0.
    if q == 2.0:
        return t
    sign = np.sign(t)
    if q == 1.0:
        return sign
    _abs_pow(t, q - 1.0)
    t *= sign
    return t


def _edge_gradient(x: np.ndarray, g: Graph, q: float) -> np.ndarray:
    # x has g's vertices along its leading axis. d/dx of sum_e w_e |(D x)_e|^q
    # is q D^T (w phi(D x)); the factor q is applied by the caller.
    d = g.incidence
    return d.adjoint(d.weigh(_phi(d.apply(x), q)))


def _ebem_gradient(x: np.ndarray, y: np.ndarray, g1: Graph, g2: Graph,
                   params: EbemParams) -> np.ndarray:
    g = _phi(x - y, params.p)
    g *= params.p
    for gamma, q, factor, axis in ((params.gamma1, params.q1, g1, 0),
                                   (params.gamma2, params.q2, g2, 1)):
        if gamma > 0:
            term = _edge_gradient(x if axis == 0 else np.ascontiguousarray(x.T), factor, q)
            term *= gamma * q
            g += term if axis == 0 else term.T
    return g


def _observation(y: np.ndarray, g1: Graph, g2: Graph) -> np.ndarray:
    return _check_shape(y, (g1.n, g2.n), "observation", np.float64)


def _filtered(s: Spectrum2D, params: EbemParams) -> Spectrum2D:
    denom = 1.0 + params.gamma1 * s.lambdas1[:, None] + params.gamma2 * s.lambdas2[None, :]
    return Spectrum2D(values=s.values / denom, lambdas1=s.lambdas1, lambdas2=s.lambdas2)


def closed_form_sweep(y: np.ndarray, g1: Graph, g2: Graph, sweep: Iterable[EbemParams],
                      b1: EigenBasis | None = None,
                      b2: EigenBasis | None = None) -> Iterator[SolveReport]:
    """Closed-form solves of every point of `sweep`, one report at a time.

    Every point must have p = q1 = q2 = 2 or no regularization. The
    all-quadratic energy is the 2-D spectral filter 1 / (1 + gamma1*l1 +
    gamma2*l2), so the factors' Laplacian eigenbases (`b1`/`b2`, computed
    here if not given) and the spectrum of y are computed once, at the
    first regularized point, and each point divides that spectrum by its
    own denominator (always >= 1, so the solve never degenerates). A point
    with both gammas 0 returns a copy of y. Consuming the reports one at a
    time keeps one minimizer alive, not one per point.
    """
    y = _observation(y, g1, g2)
    s = None
    for params in sweep:
        if not params.regularized:
            yield SolveReport(minimizer=y.copy(), energy=0.0, iterations=0,
                              residual=0.0, method="closed_form")
            continue
        if not params.all_quadratic:
            raise MdgspError("the closed form needs p = q1 = q2 = 2")
        if s is None:
            if b1 is None:
                b1 = eigenbasis(matrices(g1).L, "laplacian")
            if b2 is None:
                b2 = eigenbasis(matrices(g2).L, "laplacian")
            s = gft_2d(y, b1, b2)
        x = inverse_gft_2d(_filtered(s, params), b1, b2)
        yield SolveReport(minimizer=x, energy=ebem_energy(x, y, g1, g2, params),
                          iterations=0, residual=0.0, method="closed_form")


def _dual_minimize(y: np.ndarray, g1: Graph, g2: Graph, params: EbemParams,
                   max_iter: int, tol: float) -> SolveReport:
    """Minimize E(x) = ||x - y||^2 + sum_e c_e |(D x)_e| (every regularized
    direction has q = 1, c_e = gamma * w_e) through its dual.

    The dual is g(z) = <D^T z, y> - ||D^T z||^2 / 4 over the box |z_e| <= c_e,
    with x(z) = y - D^T z / 2. FISTA (Beck & Teboulle 2009) ascends it with
    projected steps of 1 / L: the gradient D x(z) is L-Lipschitz for
    L = lambda_max(D^T D) / 2 <= the sum over factors of their largest
    unweighted degree. The momentum restarts when the step's gradient
    mapping points against it (O'Donoghue & Candes 2015). An iteration costs
    one `Incidence.apply` and one `adjoint` per regularized factor and no
    energy evaluation.

    Every `_GAP_EVERY` iterations, and at `max_iter`, the relative duality
    gap (E(x) - g(z)) / E(x) is taken: g(z) bounds the minimum energy from
    below, so a gap <= tol certifies x. The loop stops there, and also on a
    gap that is not a number (a non-finite y).

    The dual vector is one flat array, so the box step, momentum and restart
    test run once per iteration on all factors. Each factor's block keeps
    its edge axis leading, (|E|, length of the other axis), so the gathers of
    D and D^T copy whole rows; the second factor's block reads x^T.
    """
    blocks, size, lipschitz = [], 0, 0
    for gamma, g, axis in ((params.gamma1, g1, 0), (params.gamma2, g2, 1)):
        d = g.incidence
        if gamma > 0 and d.i.size:
            shape = (d.i.size, y.shape[1 - axis])
            blocks.append((d, axis, slice(size, size + shape[0] * shape[1]), shape, gamma))
            size += shape[0] * shape[1]
            lipschitz += int(np.bincount(np.concatenate((d.i, d.j))).max())
    if not blocks:  # no edge is regularized: y is its own minimizer
        return SolveReport(minimizer=y.copy(), energy=ebem_energy(y, y, g1, g2, params),
                           iterations=0, residual=0.0, method="dual")

    def split(v: np.ndarray) -> list[np.ndarray]:
        return [v[rows].reshape(shape) for _, _, rows, shape, _ in blocks]

    def adjoint(v: np.ndarray) -> np.ndarray:
        """D^T v, shaped like y."""
        total = None
        for (d, axis, *_), part in zip(blocks, split(v)):
            a = d.adjoint(part)
            if axis == 1:
                a = a.T
            if total is None:
                total = a
            else:
                total += a
        return total

    step = 1.0 / lipschitz
    upper = np.empty(size)
    for (d, *_, gamma), part in zip(blocks, split(upper)):
        part[...] = (gamma * d.w)[:, None]
    lower = -upper
    grad = np.empty(size)
    grad_parts = split(grad)
    z = p = np.zeros(size)
    t = 1.0
    max_iter = max(max_iter, 1)  # the report comes from a gap check
    for it in range(1, max_iter + 1):
        x = adjoint(p)
        x *= -0.5
        x += y
        for (d, axis, *_), part in zip(blocks, grad_parts):
            d.apply(x if axis == 0 else np.ascontiguousarray(x.T), out=part)
        z_new = np.multiply(grad, step)
        z_new += p
        np.minimum(z_new, upper, out=z_new)
        np.maximum(z_new, lower, out=z_new)
        dz = z_new - z
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if np.vdot(z_new - p, dz) < 0:
            p, t_next = z_new, 1.0
        else:
            dz *= (t - 1.0) / t_next
            p = np.add(dz, z_new, out=dz)
        z, t = z_new, t_next
        if it % _GAP_EVERY == 0 or it == max_iter:
            s = adjoint(z)
            x = y - 0.5 * s
            energy = ebem_energy(x, y, g1, g2, params)
            dual = float(np.vdot(s, y)) - 0.25 * float(np.vdot(s, s))
            gap = (energy - dual) / energy if energy else 0.0  # E = 0 only at x = y
            if not gap > tol:
                break
    return SolveReport(minimizer=x, energy=energy, iterations=it, residual=gap,
                       method="dual", converged=gap <= tol)


def ebem_minimize(y: np.ndarray, g1: Graph, g2: Graph, params: EbemParams,
                  max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                  force_gradient: bool = False) -> SolveReport:
    """Minimize the energy for an observation y.

    Four routes, chosen from the parameters (see `SolveReport` for what each
    reports):

    - p = q1 = q2 = 2, or no regularization: the spectral closed form is
      exact: each spectral coefficient of y is divided by 1 + gamma1*l1 +
      gamma2*l2 (always >= 1, so the solve never degenerates).
    - p = 2 and q = 1 on every direction with gamma > 0: FISTA with
      adaptive restart on the box-constrained dual (`_dual_minimize`). The
      relative duality gap is checked every 10 iterations and at max_iter;
      `converged` certifies it is <= tol. On the benchmark's q = 1 solve
      (path(64) x cycle(64), gamma 0.5) it reaches a gap of 1e-10 in
      180-240 iterations at seeds 1, 5, 7, 13, 31 and 101.
    - Smooth exponents (p, q1, q2 > 1): gradient descent with Armijo
      backtracking, which guarantees the energy never increases; the
      benchmark's q = 1.5 solve takes 46-65 iterations at those seeds.
    - Any other exponent of 1 (p = 1, or q = 1 with p != 2), and every
      solve with `force_gradient`: the same Armijo search on a subgradient,
      reporting the best iterate; only when no Armijo step is found does it
      take a diminishing step 1 / (|g| (1 + it)). `converged` means the
      relative energy decrease fell below tol, which certifies no
      optimality gap for q = 1: forced onto the benchmark's q = 1 solve it
      stops after 130-209 iterations, 5e-4 to 8e-4 above the optimum, at
      about 2.2 energy evaluations per iteration (a test reaches the
      diminishing step by accepting no Armijo step).

    Non-convergence (max_iter reached above tol) is reported in the result,
    not raised; so is a non-finite starting energy on the gradient route,
    which stops before the first iteration. Only p = 1 leaves the fidelity
    term not strictly convex, so only then may the minimizer be non-unique
    (`maybe_nonunique`).

    A gamma sweep of closed-form points runs through `closed_form_sweep`,
    which transforms y once.
    """
    y = _observation(y, g1, g2)
    if (not params.regularized or params.all_quadratic) and not force_gradient:
        return next(closed_form_sweep(y, g1, g2, [params]))
    exponents = {q for gamma, q in ((params.gamma1, params.q1), (params.gamma2, params.q2))
                 if gamma > 0}
    if params.p == 2.0 and exponents == {1.0} and not force_gradient:
        return _dual_minimize(y, g1, g2, params, max_iter, tol)

    smooth = params.p > 1 and params.q1 > 1 and params.q2 > 1
    x = y.copy()
    energy = ebem_energy(x, y, g1, g2, params)
    if not np.isfinite(energy):  # no step can lower it: nothing to certify
        return SolveReport(minimizer=x, energy=energy, iterations=0, residual=np.nan,
                           method="gradient", converged=False,
                           maybe_nonunique=bool(params.p == 1))
    best_x, best_energy = x, energy
    step = 1.0
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = _ebem_gradient(x, y, g1, g2, params)
        gnorm2 = float((grad * grad).sum())
        if gnorm2 == 0.0:
            residual = 0.0
            break
        # Backtracking line search (Armijo). For the subgradient case the
        # direction may not admit descent near a kink; fall through to a
        # diminishing step then.
        alpha = min(step * 2.0, 1e6)
        accepted = False
        while alpha > _STEP_FLOOR:
            cand = x - alpha * grad
            cand_energy = ebem_energy(cand, y, g1, g2, params)
            if cand_energy <= energy - _ARMIJO_C * alpha * gnorm2:
                accepted = True
                break
            alpha *= 0.5
        if accepted:
            step = alpha
            new_energy = cand_energy
            x = cand
        else:
            if smooth:
                # Gradient is exact here, so failure to descend means we
                # are at the minimizer up to rounding.
                residual = 0.0
                break
            alpha = 1.0 / (np.sqrt(gnorm2) * (1.0 + it))
            x = x - alpha * grad
            new_energy = ebem_energy(x, y, g1, g2, params)
        if new_energy < best_energy:
            best_x, best_energy = x, new_energy
        residual = abs(energy - new_energy) / max(abs(energy), 1e-300)
        energy = new_energy
        if residual < tol and (smooth or it > 100):
            break
    return SolveReport(minimizer=best_x, energy=best_energy, iterations=it,
                       residual=residual, method="gradient", converged=residual < tol,
                       maybe_nonunique=bool(params.p == 1))
