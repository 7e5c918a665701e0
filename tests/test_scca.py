import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hdpaired.scca as scca
from hdpaired.scca import (
    SccaParams,
    SccaSolver,
    canonical_correlation,
    fit_cca,
    fit_scca,
    project,
    project_l1_ball,
    project_l1_l2,
    project_l2_ball,
)
from hdpaired.distances import distance_matrix
from hdpaired.matrixio import ColumnStandardizer, FeatureMatrix
from hdpaired.model_selection import spectral_scale

from oracles import naive_pearson, plain_scca_alternation


def orthonormal_columns(n, d, seed):
    """Matrix with exactly orthonormal columns scaled to unit column norm:
    for these, the top cross-covariance singular pair solves the
    score-norm-constrained problem exactly."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return q


def unit_columns(data):
    centered = data - data.mean(axis=0)
    return centered / np.linalg.norm(centered, axis=0)


def scaled(data):
    """Standardized columns divided by the top singular value, as fit_model
    scales each side: the input the sparse-CCA solver accepts."""
    standardized = ColumnStandardizer.fit(data).apply(data)
    return standardized * spectral_scale(standardized)


class TestProjections:
    def test_l1_projection_feasible_and_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(40) * rng.uniform(0.1, 10)
            c = rng.uniform(0.2, 5.0)
            out = project_l1_ball(v, c)
            assert np.abs(out).sum() <= c * (1 + 1e-12)
            np.testing.assert_allclose(project_l1_ball(out, c), out, atol=1e-12)

    def test_l1_projection_matches_slow_reference(self):
        # reference: golden-section on the soft-threshold level
        def slow(v, c):
            if np.abs(v).sum() <= c:
                return v
            lo, hi = 0.0, np.abs(v).max()
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.maximum(np.abs(v) - mid, 0).sum() > c:
                    lo = mid
                else:
                    hi = mid
            theta = 0.5 * (lo + hi)
            return np.sign(v) * np.maximum(np.abs(v) - theta, 0)

        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.standard_normal(25)
            c = rng.uniform(0.3, 4.0)
            np.testing.assert_allclose(project_l1_ball(v, c), slow(v, c), atol=1e-9)

    def test_l2_projection(self):
        v = np.array([3.0, 4.0])
        np.testing.assert_allclose(project_l2_ball(v, 1.0), v / 5.0)
        np.testing.assert_allclose(project_l2_ball(v, 10.0), v)


def reference_l2_ball(w, d):
    nrm = np.linalg.norm(w)
    return w if nrm <= d else w * (d / nrm)


def reference_l1_ball(w, c):
    """Sort-based projection onto the l1 ball (Duchi et al. 2008), on raw
    cumulative sums: exact enough at the moderate scales it is used on."""
    a = np.abs(w)
    if a.sum() <= c:
        return w
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, u.size + 1) > css - c)[0][-1]
    return np.sign(w) * np.maximum(a - (css[rho] - c) / (rho + 1.0), 0.0)


def dykstra_l1_l2(w, c, d, sweeps=100000):
    """Slow reference for project_l1_l2: Dykstra's alternation between the
    l2 and l1 balls, run until the iterate stops moving."""
    x = w.copy()
    inc_l2 = np.zeros_like(w)
    inc_l1 = np.zeros_like(w)
    for _ in range(sweeps):
        y = reference_l2_ball(x + inc_l2, d)
        inc_l2 = x + inc_l2 - y
        x_new = reference_l1_ball(y + inc_l1, c)
        inc_l1 = y + inc_l1 - x_new
        if np.array_equal(x_new, x):
            break
        x = x_new
    return x_new


def bisection_l1_l2(w, c, d):
    """Slow reference for project_l1_l2: v(t) = S_t(w) min(1, d / ||S_t(w)||_2),
    S_t the soft-threshold at t, at the least t whose ||v(t)||_1 <= c.  The
    l1 norm of v falls as t rises, so bisection finds t to the last bit."""
    a = np.abs(w)

    def v(t):
        s = np.maximum(a - t, 0.0)
        nrm = np.linalg.norm(s)
        return s * (d / nrm) if nrm > d else s

    lo, hi = 0.0, float(a.max())
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if v(mid).sum() <= c:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return np.sign(w) * v(hi)


def l1_l2_case(w, c, d):
    """Which of project_l1_l2's four cases applies to (w, c, d)."""
    l1, l2 = np.abs(w).sum(), np.linalg.norm(w)
    if l1 <= c and l2 <= d:
        return "inside"
    if l2 > d and l1 * d / l2 <= c:
        return "l2"
    if np.linalg.norm(reference_l1_ball(w, c)) <= d:
        return "l1"
    return "both"


# Entries are 0 or at least 1e-100 in magnitude, so that squares and
# norms stay normal floats (below that every l2 norm here loses precision).
vectors = st.lists(
    st.one_of(
        st.floats(-10.0, 10.0).filter(lambda v: abs(v) >= 1e-100),
        st.sampled_from([0.0, 0.5, -0.5, 2.0]),  # exact ties and zeros
    ),
    min_size=1,
    max_size=40,
).map(np.array)
bounds = st.floats(0.05, 8.0)


class TestProjectL1L2:
    # one hand-built input per case
    CASES = {
        "inside": (np.array([0.3, -0.2, 0.1]), 1.0, 1.0),
        "l2": (np.array([3.0, 4.0, 0.0]), 2.0, 1.0),
        "l1": (np.array([0.5, -0.4, 0.3, 0.2]), 0.6, 1.0),
        "both": (np.array([3.0, -2.0, 1.0, 0.5]), 1.5, 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_case_matches_dykstra_reference(self, case):
        w, c, d = self.CASES[case]
        assert l1_l2_case(w, c, d) == case
        out = project_l1_l2(w, c, d)
        np.testing.assert_allclose(out, dykstra_l1_l2(w, c, d), rtol=0, atol=1e-10)
        if case == "both":
            assert np.abs(out).sum() == pytest.approx(c, rel=1e-12)
            assert np.linalg.norm(out) == pytest.approx(d, rel=1e-12)

    @given(vectors, bounds, bounds)
    @settings(max_examples=300, deadline=None)
    def test_matches_dykstra_reference(self, w, c, d):
        out = project_l1_l2(w, c, d)
        scale = max(1.0, float(np.abs(w).max()))
        np.testing.assert_allclose(out, dykstra_l1_l2(w, c, d), rtol=0, atol=1e-8 * scale)

    @given(vectors, st.floats(0.02, 0.98), st.floats(0.02, 0.98))
    @example(np.array([1.375, 1.375, 1.390625, 6.6875, 7.25, 0.5, 0.5, 0.5]), 0.021484375,
             0.44720219515312715)
    @settings(max_examples=100, deadline=None)
    def test_both_bounds_regime_matches_bisection_reference(self, w, fd, fc):
        # d below ||w||_2 and c/d strictly between 1 and ||w||_1/||w||_2:
        # mostly the case where both bounds bind, rare under free bounds.
        # Dykstra's alternation can crawl here: on the pinned example, with
        # c/d just under sqrt(2), 100,000 sweeps left it 8.1e-8 from the
        # projection, which project_l1_l2 and the bisection both meet within
        # 3e-16 (checked against a 50-digit solution).
        l1, l2 = float(np.abs(w).sum()), float(np.linalg.norm(w))
        assume(l2 > 0)
        d = fd * l2
        c = d * (1 + fc * (l1 / l2 - 1))
        np.testing.assert_allclose(project_l1_l2(w, c, d), bisection_l1_l2(w, c, d),
                                   rtol=0, atol=1e-8 * float(np.abs(w).max()))

    @given(vectors, bounds, bounds)
    @settings(max_examples=300, deadline=None)
    def test_feasible_and_idempotent(self, w, c, d):
        out = project_l1_l2(w, c, d)
        assert np.abs(out).sum() <= c * (1 + 1e-12)
        assert np.linalg.norm(out) <= d * (1 + 1e-12)
        np.testing.assert_allclose(project_l1_l2(out, c, d), out, rtol=1e-12, atol=1e-15)
        if l1_l2_case(w, c, d) == "inside":
            np.testing.assert_array_equal(out, w)


@st.composite
def wide_vectors(draw):
    """Entries of magnitude 1e-150..1e150 with random signs; the first few
    are often copies of the largest, so the top is tied."""
    exponents = draw(st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=40))
    w = 10.0 ** np.array(exponents)
    w[:draw(st.integers(0, w.size))] = w.max()
    signs = draw(st.lists(st.booleans(), min_size=w.size, max_size=w.size))
    return np.where(signs, -w, w)


def check_l1_l2_projection(w, c, d):
    """project_l1_l2 (and project_l1_ball when d is inf) is feasible, spends
    the whole l1 budget when that bound binds, and is idempotent."""
    out = project_l1_l2(w, c, d)
    if d == math.inf:
        np.testing.assert_array_equal(project_l1_ball(w, c), out)
    l1 = float(np.abs(out).sum())
    assert l1 <= c * (1 + 1e-12)
    assert np.linalg.norm(out) <= d * (1 + 1e-12)
    # the l1 bound binds unless w, or w scaled onto the l2 sphere, meets it
    if float(np.abs(w).sum()) * min(1.0, d / np.linalg.norm(w)) > c:
        assert l1 == pytest.approx(c, rel=1e-12)
    np.testing.assert_allclose(project_l1_l2(out, c, d), out, rtol=1e-12, atol=1e-15)


class TestProjectionsAtAnyScale:
    @given(wide_vectors(), bounds, bounds)
    @settings(max_examples=300, deadline=None)
    def test_l1_and_l1_l2_projections(self, w, c, d):
        check_l1_l2_projection(w, c, math.inf)
        check_l1_l2_projection(w, c, d)

    @pytest.mark.parametrize("w", [np.full(5, 1.6e17), np.array([1e15, 1e15 * (1 - 1e-9), 3.0])],
                             ids=["tied-1.6e17", "near-tied-1e15"])
    def test_regression_cases(self, w):
        # c is near or below the rounding unit of max |w|, so a threshold
        # taken from raw cumulative sums of |w| loses it
        check_l1_l2_projection(w, 1.1, math.inf)
        check_l1_l2_projection(w, 1.1, 1.0)

    def test_tied_maxima_share_the_budget(self):
        np.testing.assert_array_equal(project_l1_ball(np.full(5, 1.6e17), 1.1), np.full(5, 1.1 / 5))

    @pytest.mark.filterwarnings("error")
    def test_norms_past_the_square_range(self):
        # w @ w overflows above about 1e154 and underflows below about 1e-154
        w = np.array([1e200, 1.0])
        np.testing.assert_allclose(project_l1_l2(w, 1.0, 1.0), [1.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(project_l2_ball(w, 1.0), [1.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(scca._lmo_l1_l2(w, 2.0, 1.0), [1.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(scca._lmo_l1_l2(np.array([1e-200, 1e-201]), 2.0, 1.0),
                                   np.array([1.0, 0.1]) / math.sqrt(1.01), rtol=1e-15)


def support_function_l1_l2(g, c, d):
    """max of g @ w over {||w||_1 <= c, ||w||_2 <= d}, evaluated as its dual
    min over lam >= 0 of d ||S_lam(g)||_2 + c lam (S the soft-threshold).
    The dual is convex in lam and increasing past max |g|, so a golden-section
    search over [0, max |g|] finds it."""
    a = np.abs(g)

    def dual(lam):
        return d * np.linalg.norm(np.maximum(a - lam, 0.0)) + c * lam

    lo, hi = 0.0, float(a.max())
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(300):
        m1, m2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if dual(m1) <= dual(m2):
            hi = m2
        else:
            lo = m1
    return min(dual(lo), dual(hi), dual(0.0), dual(float(a.max())))


class TestLinearMaximizer:
    @given(vectors, bounds, bounds)
    @settings(max_examples=300, deadline=None)
    def test_l1_l2_maximizer_feasible_and_attains_support_function(self, g, c, d):
        w = scca._lmo_l1_l2(g, c, d)
        assert np.abs(w).sum() <= c * (1 + 1e-12)
        assert np.linalg.norm(w) <= d * (1 + 1e-12)
        assert float(g @ w) == pytest.approx(support_function_l1_l2(g, c, d), rel=1e-9, abs=0)

    @given(vectors, bounds, bounds, st.floats(-140.0, 140.0))
    @settings(max_examples=300, deadline=None)
    def test_l1_l2_maximizer_does_not_depend_on_the_scale_of_g(self, g, c, d, exponent):
        a = np.abs(g)
        top = float(a.max())
        # keep tied maxima tied and apart from the rest: among entries tied
        # at the top the maximizer may split the budget any way
        assume(top >= 1e-8 and np.all((a == top) | (a <= top * (1 - 1e-9))))
        np.testing.assert_allclose(scca._lmo_l1_l2(10.0 ** exponent * g, c, d),
                                   scca._lmo_l1_l2(g, c, d), rtol=0, atol=1e-12)


def slsqp_half_step(m, g, c, d):
    """Reference maximizer of g @ w over {||Mw||_2 <= 1, ||w||_1 <= c,
    ||w||_2 <= d}: scipy SLSQP on w = w+ - w- with w+, w- >= 0."""
    from scipy.optimize import minimize

    p = g.size

    def w_of(z):
        return z[:p] - z[p:]

    def both(h):
        return np.concatenate([h, -h])

    cons = [
        {"type": "ineq", "fun": lambda z: c - z.sum(), "jac": lambda z: -np.ones(2 * p)},
        {"type": "ineq", "fun": lambda z: d * d - w_of(z) @ w_of(z),
         "jac": lambda z: both(-2.0 * w_of(z))},
        {"type": "ineq", "fun": lambda z: 1.0 - np.sum((m @ w_of(z)) ** 2),
         "jac": lambda z: both(-2.0 * m.T @ (m @ w_of(z)))},
    ]
    res = minimize(lambda z: -(g @ w_of(z)), np.zeros(2 * p), jac=lambda z: both(-g),
                   bounds=[(0.0, None)] * (2 * p), constraints=cons, method="SLSQP",
                   options={"ftol": 1e-15, "maxiter": 1000})
    return w_of(res.x)


class TestHalfStep:
    def test_spectrally_scaled_fit_never_builds_ellipsoid(self):
        # With d <= 1 on spectrally scaled input the score-norm cap never
        # binds: every half-step is the l1/l2 maximizer, and none raises.
        rng = np.random.default_rng(21)
        x, y = scaled(rng.standard_normal((40, 25))), scaled(rng.standard_normal((40, 18)))
        solver = SccaSolver(x, y)
        for c in (1.0, 1.7, 3.0, 5.0):
            for d in (0.6, 1.0):
                step = solver._half_step("x", c, d)
                for _ in range(20):
                    g = rng.standard_normal(25) * rng.uniform(0.01, 5)
                    w, score = step(g)
                    assert np.array_equal(score, x @ w)
                    np.testing.assert_allclose(w, scca._lmo_l1_l2(g, c, d),
                                               rtol=1e-14, atol=1e-300)
            fit = solver.fit(SccaParams(c1=c, c2=c, max_iters=50))
            assert np.linalg.norm(x @ fit.u) <= 1.0 and np.linalg.norm(y @ fit.v) <= 1.0

    def test_binding_ellipsoid_matches_slsqp_reference(self):
        # The score-norm ellipsoid is one of the three constraints SLSQP
        # keeps; on spectrally scaled input with d <= 1 it cannot bind at
        # the optimum, so the l1/l2 maximizer is the exact half-step.
        # SLSQP overshoots its constraints (the l2 bound by up to 6e-7
        # relative on these draws), so its value is read twice: as found,
        # and with its point divided back into the full set.  The half-step
        # lies between the two within 1e-9 relative.
        rng = np.random.default_rng(24)
        x = scaled(rng.standard_normal((30, 12)))
        solver = SccaSolver(x, x)
        for c in (1.0, 1.5, 2.5, 6.0):
            for d in (0.6, 1.0):
                step = solver._half_step("x", c, d)
                for _ in range(5):
                    g = rng.standard_normal(12) * rng.uniform(0.5, 4)
                    w, score = step(g)
                    assert np.array_equal(score, x @ w)
                    assert np.linalg.norm(x @ w) <= 1.0 + 1e-12
                    assert np.abs(w).sum() <= c * (1 + 1e-12)
                    assert np.linalg.norm(w) <= d * (1 + 1e-12)
                    ref = slsqp_half_step(x, g, c, d)
                    overshoot = max(1.0, np.abs(ref).sum() / c, np.linalg.norm(ref) / d,
                                    np.linalg.norm(x @ ref))
                    value = float(g @ w)
                    assert float(g @ ref) / overshoot <= value * (1 + 1e-9)
                    assert value <= float(g @ ref) * (1 + 1e-9)


class TestAlternationOracle:
    """fit carries each side's scores from its half-step; the plain
    alternation forms x @ u and y @ v afresh, and every output keeps its
    bits."""

    def check(self, x, y, params, init="svd", seed=0, start=None):
        fit = SccaSolver(x, y).fit(params, init=init, seed=seed)
        u, v, obj, trace, iterations, converged = plain_scca_alternation(
            x, y, params.c1, params.c2, params.d1, params.d2, params.max_iters, params.tol,
            start=start)
        assert np.array_equal(fit.u, u) and np.array_equal(fit.v, v)
        assert fit.objective == obj
        assert fit.objective_trace.tobytes() == trace.tobytes()
        assert (fit.iterations, fit.converged) == (iterations, converged)
        assert fit.iterations > 2

    def test_spectrally_scaled_fit(self):
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((40, 25)), rng.standard_normal((40, 18))
        raw[1][:, :3] += raw[0][:, :3]
        self.check(scaled(raw[0]), scaled(raw[1]), SccaParams(c1=2.2, c2=1.8, tol=1e-10))

    def test_seeded_random_start(self):
        from hdpaired._util import STREAM_SCCA_INIT, replicate_rng

        rng = np.random.default_rng(33)
        x = scaled(rng.standard_normal((35, 20)))
        y = scaled(rng.standard_normal((35, 16)))
        draws = replicate_rng(5, STREAM_SCCA_INIT)
        start = draws.standard_normal(20), draws.standard_normal(16)
        self.check(x, y, SccaParams(c1=1.8, c2=2.4, tol=1e-10), init="seeded-random",
                   seed=5, start=start)


class TestFeasibleProjection:
    def test_shared_solver_builds_cached_state_once_across_threads(self, monkeypatch):
        # cross-validation fits many cells on one solver from several
        # threads: the power-iteration start is built once, and every fit
        # matches a fit on a fresh solver
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(23)
        x = scaled(rng.standard_normal((20, 8)))
        y = scaled(rng.standard_normal((20, 6)))
        grid = [SccaParams(c1=c, c2=c, max_iters=1) for c in np.linspace(1.2, 3.0, 6)]
        fresh = [SccaSolver(x, y).fit(params) for params in grid]

        builds = []
        power_init = SccaSolver._power_init

        def counting_power_init(self, sweeps=15):
            builds.append("power_init")
            return power_init(self, sweeps)

        monkeypatch.setattr(SccaSolver, "_power_init", counting_power_init)
        solver = SccaSolver(x, y)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ThreadPoolExecutor(6) as pool:
                fits = list(pool.map(solver.fit, grid, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert builds == ["power_init"]
        for a, b in zip(fresh, fits):
            assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


class TestProjectAndCorrelation:
    def test_zero_vector_scores(self):
        m = np.random.default_rng(3).standard_normal((6, 4))
        np.testing.assert_array_equal(project(m, np.zeros(4)), np.zeros(6))

    def test_basis_rows_pick_entries(self):
        w = np.array([1.5, -2.0, 0.5])
        np.testing.assert_allclose(project(np.eye(3), w), w)

    def test_matches_naive_dot(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((15, 7))
        w = rng.standard_normal(7)
        naive = np.array([sum(m[i, j] * w[j] for j in range(7)) for i in range(15)])
        np.testing.assert_allclose(project(m, w), naive, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            project(np.ones((3, 2)), np.ones(3))

    def test_correlation_affine(self):
        s = np.random.default_rng(5).standard_normal(20)
        assert canonical_correlation(s, 2 * s + 1) == pytest.approx(1.0)
        assert canonical_correlation(s, -s) == pytest.approx(-1.0)

    def test_correlation_consistent_with_correlation_distance(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 100))
        d = distance_matrix(FeatureMatrix(np.vstack([a, b]), ("a", "b")),
                            "pearson_correlation_distance")
        assert canonical_correlation(a, b) == pytest.approx(1.0 - d.data[0, 1], abs=1e-12)

    def test_constant_scores_error(self):
        with pytest.raises(ValueError, match="constant"):
            canonical_correlation(np.ones(5), np.arange(5.0))


class TestFitCca:
    def test_self_alignment(self):
        x = unit_columns(np.random.default_rng(7).standard_normal((40, 6)))
        fit = fit_cca(x, x)
        assert fit.objective == pytest.approx(1.0, abs=1e-8)

    def test_recovers_planted_rank_one_cross_covariance(self):
        rng = np.random.default_rng(8)
        n, p, q = 200, 8, 6
        a = rng.standard_normal(p)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(q)
        b /= np.linalg.norm(b)
        z = rng.standard_normal(n)
        x = np.outer(z, a) + 0.05 * rng.standard_normal((n, p))
        y = np.outer(z, b) + 0.05 * rng.standard_normal((n, q))
        fit = fit_cca(x - x.mean(0), y - y.mean(0))
        cos_u = abs(fit.u @ a) / np.linalg.norm(fit.u)
        cos_v = abs(fit.v @ b) / np.linalg.norm(fit.v)
        assert cos_u > 1 - 1e-3 and cos_v > 1 - 1e-3

    def test_orthogonal_column_spaces_near_zero_objective(self):
        rng = np.random.default_rng(9)
        basis, _ = np.linalg.qr(rng.standard_normal((60, 20)))
        x = basis[:, :8]
        y = basis[:, 8:14]
        fit = fit_cca(x, y)
        assert fit.objective <= 1e-8

    def test_score_norms_unit(self):
        rng = np.random.default_rng(10)
        x = unit_columns(rng.standard_normal((50, 5)))
        y = unit_columns(rng.standard_normal((50, 7)))
        fit = fit_cca(x, y)
        assert np.linalg.norm(x @ fit.u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(y @ fit.v) == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        x = unit_columns(rng.standard_normal((30, 4)))
        y = unit_columns(rng.standard_normal((30, 4)))
        fit = fit_cca(x, y)
        assert fit.u[np.argmax(np.abs(fit.u))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        x = unit_columns(rng.standard_normal((40, 6)))
        y = unit_columns(rng.standard_normal((40, 5)))
        a = fit_cca(x, y)
        b = fit_cca(x, y)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


class TestFitScca:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="l1 bounds"):
            SccaParams(c1=0.0, c2=1.0)
        with pytest.raises(ValueError, match="tol"):
            SccaParams(c1=1.0, c2=1.0, tol=0.0)
        with pytest.raises(ValueError, match=r"l2 bounds must lie in \(0, 1\], got \(1.5, 1.0\)"):
            SccaParams(c1=1.0, c2=1.0, d1=1.5)
        assert SccaParams(c1=1.0, c2=1.0, d1=1.0, d2=1.0).d1 == 1.0

    def test_unscaled_input_rejected(self):
        # Unit columns have spectral norm above 1, so the l1/l2 maximizer
        # can score above norm 1: the fit names the remedy.
        rng = np.random.default_rng(14)
        x = unit_columns(rng.standard_normal((50, 30)))
        y = unit_columns(rng.standard_normal((50, 25)))
        with pytest.raises(ValueError, match=r"x side: .* model_selection\.spectral_scale"):
            fit_scca(x, y, SccaParams(c1=2.0, c2=2.0))

    def test_inactive_l1_matches_plain_cca_on_whitened_instances(self):
        # With exactly orthonormal columns the SVD solution of fit_cca is the
        # true optimum of the constrained problem, so the alternating solver
        # must reach the same objective.
        for seed in range(5):
            n = 60
            p, q = 12, 9
            x = orthonormal_columns(n, p, seed)
            y = orthonormal_columns(n, q, 1000 + seed)
            ref = fit_cca(x, y)
            fit = fit_scca(
                x, y,
                SccaParams(c1=math.sqrt(p), c2=math.sqrt(q), max_iters=3000, tol=1e-10),
            )
            assert fit.objective == pytest.approx(ref.objective, abs=1e-4)

    def test_tightest_l1_selects_best_single_column_pair(self):
        rng = np.random.default_rng(13)
        n, p, q = 80, 20, 15
        x = unit_columns(rng.standard_normal((n, p)))
        y = unit_columns(rng.standard_normal((n, q)))
        fit = fit_scca(x, y, SccaParams(c1=1.0, c2=1.0, max_iters=1500, tol=1e-9))
        # c=1 with unit-norm columns forces (near-)1-sparse solutions
        assert fit.support_u.size <= 2 and fit.support_v.size <= 2
        ju = fit.support_u[np.argmax(np.abs(fit.u[fit.support_u]))]
        # exhaustive single-column search given the v-side direction
        scores = np.abs(x.T @ (y @ fit.v))
        assert scores[ju] == pytest.approx(scores.max(), rel=1e-6)

    def test_monotone_trace_and_feasibility(self):
        rng = np.random.default_rng(14)
        x = scaled(rng.standard_normal((50, 30)))
        y = scaled(rng.standard_normal((50, 25)))
        params = SccaParams(c1=2.0, c2=2.5)
        fit = fit_scca(x, y, params)
        assert np.all(np.diff(fit.objective_trace) >= -1e-10)
        assert np.abs(fit.u).sum() <= params.c1 + 1e-8
        assert np.abs(fit.v).sum() <= params.c2 + 1e-8
        assert np.linalg.norm(fit.u) <= params.d1 + 1e-8
        assert np.linalg.norm(fit.v) <= params.d2 + 1e-8
        assert np.linalg.norm(x @ fit.u) <= 1 + 1e-8
        assert np.linalg.norm(y @ fit.v) <= 1 + 1e-8

    def test_svd_init_bit_reproducible(self):
        rng = np.random.default_rng(15)
        x = scaled(rng.standard_normal((40, 12)))
        y = scaled(rng.standard_normal((40, 10)))
        params = SccaParams(c1=1.8, c2=1.8)
        a = fit_scca(x, y, params)
        b = fit_scca(x, y, params)
        assert np.array_equal(a.u, b.u) and a.objective == b.objective

    def test_seeded_random_init_reproducible_per_seed(self):
        rng = np.random.default_rng(16)
        x = scaled(rng.standard_normal((40, 12)))
        y = scaled(rng.standard_normal((40, 10)))
        params = SccaParams(c1=1.8, c2=1.8)
        a = fit_scca(x, y, params, init="seeded-random", seed=5)
        b = fit_scca(x, y, params, init="seeded-random", seed=5)
        c = fit_scca(x, y, params, init="seeded-random", seed=6)
        assert np.array_equal(a.u, b.u)
        assert not np.array_equal(a.u, c.u)

    def test_scale_coherence_after_standardization(self):
        # multiplying raw columns by a common constant is absorbed by
        # standardization, so the fitted alignment is unchanged
        rng = np.random.default_rng(17)
        raw_x = rng.standard_normal((60, 8)) * 3 + 1
        raw_y = rng.standard_normal((60, 6))

        def pipeline(xr, yr):
            return fit_scca(scaled(xr), scaled(yr), SccaParams(c1=2.0, c2=2.0))

        a = pipeline(raw_x, raw_y)
        b = pipeline(raw_x * 7.5, raw_y)
        np.testing.assert_allclose(a.u, b.u, atol=1e-12)
        np.testing.assert_allclose(a.objective, b.objective, atol=1e-12)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(18)
        x = scaled(rng.standard_normal((30, 40)))
        y = scaled(rng.standard_normal((30, 40)))
        fit = fit_scca(x, y, SccaParams(c1=3.0, c2=3.0, max_iters=2, tol=1e-14))
        assert not fit.converged
        assert fit.iterations == 2

    def test_solver_reuse_matches_one_shot(self):
        rng = np.random.default_rng(19)
        x = scaled(rng.standard_normal((40, 15)))
        y = scaled(rng.standard_normal((40, 12)))
        solver = SccaSolver(x, y)
        params = SccaParams(c1=2.0, c2=2.0)
        a = solver.fit(params)
        b = fit_scca(x, y, params)
        assert np.array_equal(a.u, b.u)
