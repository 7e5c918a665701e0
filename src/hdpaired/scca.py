"""Plain and elastic-net sparse canonical correlation analysis.

fit_cca computes the top singular pair of the empirical cross-covariance
exactly, from the thin SVDs of X and Y and one SVD of their small core, and
rescales so the projected scores have unit norm.  fit_scca solves

    maximize  <Xu, Yv>
    s.t.      ||Xu||2 <= 1, ||u||1 <= c1, ||u||2 <= d1   (and same for v)

by alternating over u and v.  Each half-step maximizes a linear function
g @ w over a convex set.  Over {||w||1 <= c, ||w||2 <= d} the maximizer has
a closed form (_lmo_l1_l2: a soft-threshold of g rescaled to norm d, the
PMD update of Witten, Tibshirani & Hastie 2009), and when that point also
satisfies ||Xw||2 <= 1 it is the maximizer over the full set.  Only
otherwise does an Anderson-accelerated Douglas-Rachford splitting between
the ellipsoid and the l1/l2 intersection run; the thin SVD that the
ellipsoid projection needs is built the first time the ellipsoid binds.
The p x q cross-covariance is never materialized.  Every l1/l2 step, that
maximization and the l1, l2 and l1/l2 projections alike, finds its
threshold with one routine, _soft_threshold, which measures it from the
largest entry and so is exact at any magnitude whose squares stay normal
floats.

The biconvex problem has no known globally optimal algorithm; the returned
pair is a feasible point with a nondecreasing objective trace.

Note on scaling: the l1/l2 bounds bite relative to the scale of the input
matrices.  The CLI divides each standardized matrix by its top singular
value, so ||X u|| <= ||u|| holds for every u; with d <= 1 (the default,
and the only value cross-validation uses) the score-norm cap is implied by
the l2 ball, and the useful l1 range is exactly [1, sqrt(dim)].  With
d > 1, or on unscaled matrices, all three constraint sets can be active;
the solver handles the general case.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from hdpaired._util import STREAM_SCCA_INIT, canonical_sign, pearson_or_nan, replicate_rng

_INIT_MODES = ("svd", "seeded-random")
# Iteration cap and memory of the Anderson-accelerated Douglas-Rachford
# splitting that maximizes a half-step over the ellipsoid and the l1/l2
# intersection; it runs only when the ellipsoid binds.
_SPLIT_ITERS = 200
_ANDERSON_MEMORY = 5


@dataclass(frozen=True)
class SccaParams:
    """Constraint bounds and solver settings for one sparse-CCA fit."""

    c1: float
    c2: float
    d1: float = 1.0
    d2: float = 1.0
    max_iters: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError(f"l1 bounds must be positive, got ({self.c1}, {self.c2})")
        if not (self.d1 > 0 and self.d2 > 0):
            raise ValueError(f"l2 bounds must be positive, got ({self.d1}, {self.d2})")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class AlignmentPair:
    """Fitted alignment vectors with sparsity metadata.

    objective is <Xu, Yv> on the training data; objective_trace records the
    value after each alternation step and is nondecreasing within
    floating-point tolerance.  split_cap_hits counts the half-steps whose
    splitting stopped at _SPLIT_ITERS iterations (0 when the ellipsoid
    never binds).
    """

    u: np.ndarray
    v: np.ndarray
    objective: float
    support_u: np.ndarray
    support_v: np.ndarray
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    split_cap_hits: int = 0


def project(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Score vector m @ w; raises on column/length mismatch."""
    m = np.asarray(m, dtype=float)
    w = np.asarray(w, dtype=float)
    if m.ndim != 2 or w.ndim != 1 or m.shape[1] != w.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {m.shape} vs vector {w.shape}")
    return m @ w


def canonical_correlation(sx: np.ndarray, sy: np.ndarray) -> float:
    """Pearson correlation of two score vectors."""
    sx = np.asarray(sx, dtype=float)
    sy = np.asarray(sy, dtype=float)
    if sx.shape != sy.shape or sx.ndim != 1 or sx.size < 3:
        raise ValueError(f"score vectors must match with length >= 3: {sx.shape} vs {sy.shape}")
    r = pearson_or_nan(sx, sy)
    if math.isnan(r):
        raise ValueError("constant scores; correlation undefined")
    return r


def _soft_threshold(a: np.ndarray, u: np.ndarray, c: float, d: float) -> np.ndarray:
    """Magnitudes of the soft-threshold S of a = |w| at the theta where
    ||S||_1 = c (d = inf) or ||S||_1 / ||S||_2 = c / d, given u = a sorted
    descending and, at theta = 0, an l1 norm above c or a ratio above c/d.

    Both norms fall as theta rises; they are evaluated at every sorted |w|
    from cumulative sums, and on the segment holding the root theta solves
    one linear (l1) or quadratic (ratio) equation.  Everything is measured
    from the largest entry u[0]: with the gaps e = u[0] - u and r = u[0] -
    theta, S = max(r - (u[0] - a), 0).  The kept entries have gaps below r,
    and r is at most the kept l1 norm, so nothing cancels at any scale of w
    (Duchi et al. 2008 for the l1 bound, Witten, Tibshirani & Hastie 2009
    for the ratio)."""
    # Thresholding at u[k] (0 past the end) keeps the top k entries.  With
    # E1, E2 the sums of e and e^2 over the top k, their l1 norm is
    # k e_k - E1 and their squared l2 norm k e_k^2 - 2 e_k E1 + E2; the root
    # lies on the segment above the first u[k] where the bound is reached.
    e = u[0] - np.append(u, 0.0)
    sizes = np.arange(1, e.size)
    e1 = np.cumsum(e)[:-1]
    s1 = sizes * e[1:] - e1
    if d == math.inf:
        reached = s1 >= c
    else:
        s2 = sizes * e[1:] ** 2 - 2.0 * e[1:] * e1 + np.cumsum(e * e)[:-1]
        reached = (s1 > 0.0) & (s1 * d >= c * np.sqrt(np.maximum(s2, 0.0)))
    reached[-1] = True
    k = int(np.argmax(reached)) + 1
    # k kept entries r - e_i with mean r - m and squared deviation dev:
    # ||S||_1 = k (r - m), ||S||_2^2 = dev + k (r - m)^2.
    m = float(e1[k - 1]) / k
    if d == math.inf:
        r = m + c / k
    else:
        dev = float(((e[:k] - m) ** 2).sum())
        slack = d * d * k - c * c
        r = m + c * math.sqrt(dev / (k * slack)) if slack > 0.0 and dev > 0.0 else e[k]
    r = min(max(r, e[k - 1]), e[k])
    return np.maximum(r - (u[0] - a), 0.0)


def _norm2(w: np.ndarray) -> float:
    """||w||_2 as sqrt(w @ w).  Only where w @ w overflows or falls below the
    normal floats is it taken as max|w| ||w / max|w|||_2 instead, so every
    other input keeps the rounding of the plain form."""
    with np.errstate(over="ignore"):  # an overflow is handled below
        ss = float(w @ w)
    if sys.float_info.min <= ss < math.inf:
        return math.sqrt(ss)
    top = float(np.abs(w).max(initial=0.0))
    if top == 0.0:
        return 0.0
    s = w / top
    return top * math.sqrt(float(s @ s))


def project_l1_ball(w: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto {w : ||w||_1 <= c} (sort-based)."""
    return project_l1_l2(w, c, math.inf)


def project_l2_ball(w: np.ndarray, d: float) -> np.ndarray:
    """Euclidean projection onto {w : ||w||_2 <= d}."""
    return project_l1_l2(w, math.inf, d)


def project_l1_l2(w: np.ndarray, c: float, d: float) -> np.ndarray:
    """Euclidean projection onto {w : ||w||_1 <= c, ||w||_2 <= d}; either
    bound may be inf.

    The nearest point is d * S(w) / ||S(w)||_2 or S(w) itself, with S the
    soft-threshold at some theta >= 0 (the PMD update of Witten, Tibshirani
    & Hastie 2009).  Either the l2 projection already meets the l1 bound
    (theta = 0), or the l1 projection already meets the l2 bound, or both
    bounds are active; _soft_threshold finds theta in the last two cases.
    """
    a = np.abs(w)
    l1 = float(a.sum())
    l2 = _norm2(w)
    if l2 > d:
        if l1 * d <= c * l2:
            return w * (d / l2)
    elif l1 <= c:
        return w.copy()
    u = np.sort(a)[::-1]
    s = _soft_threshold(a, u, c, math.inf)
    if _norm2(s) <= d:
        return np.sign(w) * s
    s = _soft_threshold(a, u, c, d)
    return np.sign(w) * s * (d / _norm2(s))


def _lmo_l1_l2(g: np.ndarray, c: float, d: float) -> np.ndarray:
    """A maximizer of g @ w over {w : ||w||_1 <= c, ||w||_2 <= d}: d g / ||g||_2
    if that meets the l1 bound; else c sign(g_j) / k on the k entries tied
    at max |g_j| if that meets the l2 bound (always when c <= d); else the
    both-bounds point of g, as in project_l1_l2.  None depends on ||g||;
    g = 0 gives 0."""
    a = np.abs(g)
    top = float(a.max())
    if top == 0.0:
        return np.zeros_like(g)
    l2 = _norm2(g)
    if float(a.sum()) * d <= c * l2:
        return g * (d / l2)
    ties = a == top
    k = int(np.count_nonzero(ties))
    if c <= d * math.sqrt(k):
        return np.where(ties, np.sign(g) * (c / k), 0.0)
    s = _soft_threshold(a, np.sort(a)[::-1], c, d)
    return np.sign(g) * s * (d / _norm2(s))


class _EllipsoidProjection:
    """Euclidean projection onto {w : ||M w||_2 <= 1} via a thin SVD of M.

    Components of w in the null space of M are free; row-space coordinates
    are shrunk by 1/(1 + lam * s_i^2) with lam >= 0 solving the secular
    equation phi(lam) = sum_i s_i^2 w_i^2 / (1 + lam s_i^2)^2 = 1.  It has
    the form of the trust-region secular equation: phi^(-1/2) is concave
    and nearly linear in lam, so Newton on phi^(-1/2) = 1 from the left of
    the root stays left of it and takes a few steps.
    """

    def __init__(self, m: np.ndarray):
        u, s, vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=False)
        keep = s > (s[0] * 1e-13 if s.size and s[0] > 0 else 0.0)
        self.s2 = s[keep] ** 2
        self.vt = np.ascontiguousarray(vt[keep])

    def project(self, z: np.ndarray, lam_hint: float = 0.0) -> tuple[np.ndarray, float]:
        """Project z; lam_hint warm-starts the Newton solve (the root moves
        little between consecutive splitting iterations)."""
        if self.s2.size == 0:
            return z.copy(), 0.0
        w = self.vt @ z
        sw2 = self.s2 * (w * w)
        if float(sw2.sum()) <= 1.0:
            return z.copy(), 0.0
        lam = max(lam_hint, 0.0)
        denom = 1.0 + lam * self.s2
        phi = float(sw2 @ (1.0 / (denom * denom)))
        if phi < 1.0:
            # Hint overshot the root; Newton needs to start left of it.
            lam = 0.0
            denom = 1.0 + lam * self.s2
            phi = float(sw2.sum())
        for _ in range(60):
            if phi - 1.0 <= 1e-13:
                break
            inv2 = 1.0 / (denom * denom)
            dphi = -2.0 * float((self.s2 * sw2) @ (inv2 / denom))
            lam -= 2.0 * phi * (math.sqrt(phi) - 1.0) / dphi
            denom = 1.0 + lam * self.s2
            phi = float(sw2 @ (1.0 / (denom * denom)))
        w_new = w / denom
        return z + self.vt.T @ (w_new - w), lam


def _maximize_on_intersection(
    g: np.ndarray, start: np.ndarray, c: float, d: float, ell: _EllipsoidProjection
) -> tuple[np.ndarray, bool]:
    """Maximizer of g @ w over the intersection of the ellipsoid of ell and
    the ball B = {w : ||w||_1 <= c, ||w||_2 <= d}, and whether the splitting
    stopped at its cap.

    Douglas-Rachford splitting of -g @ x + ind_ell(x) and ind_B(x) with
    step t = ||start|| / ||g||: x = ell(s + t g), f = P_B(2x - s) - x,
    s <- s + f, from s = start, with P_B = project_l1_l2.  At its fixed
    points f = 0 and x is the maximizer.  Type-II Anderson acceleration
    over the last _ANDERSON_MEMORY steps extrapolates s, with its
    least-squares weights Tikhonov-regularized so that they stay bounded.
    Stops when max |f| <= 1e-12 (1 + max |x|) or after _SPLIT_ITERS
    iterations, and returns P_B(2x - s) at the smallest ||f|| seen, so the
    point lies in B.  The tolerance is near rounding level so that inputs
    equal up to rounding give fits equal up to rounding.
    """
    t = math.sqrt(float(start @ start) / float(g @ g))
    s = start
    ss: list[np.ndarray] = []
    fs: list[np.ndarray] = []
    best, best_y = math.inf, s
    lam = 0.0
    for _ in range(_SPLIT_ITERS):
        x, lam = ell.project(s + t * g, lam)
        y = project_l1_l2(2.0 * x - s, c, d)
        f = y - x
        resid = float(f @ f)
        if resid < best:
            best, best_y = resid, y
        if float(np.max(np.abs(f))) <= 1e-12 * (1.0 + float(np.max(np.abs(x)))):
            return best_y, False
        ss.append(s)
        fs.append(f)
        del ss[:-_ANDERSON_MEMORY - 1], fs[:-_ANDERSON_MEMORY - 1]
        s = s + f
        if len(fs) > 1:
            df = np.diff(fs, axis=0)
            gram = df @ df.T
            reg = 1e-10 * float(np.trace(gram))
            if reg > 0.0:
                gamma = np.linalg.solve(gram + reg * np.eye(len(gram)), df @ f)
                s = s - (np.diff(ss, axis=0) + df).T @ gamma
    return best_y, True


class SccaSolver:
    """Reusable solver for one (X, Y) pair.  The power-iteration start and,
    once the ellipsoid first binds, its SVD-based projection are computed
    once and shared across parameter settings (cross-validation fits many
    cells on the same fold matrices, possibly from several threads)."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError(f"row-aligned 2-D matrices required: {x.shape} vs {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite entries in input matrices")
        self.x = x
        self.y = y
        self._cache: dict = {}
        self._cache_lock = threading.Lock()

    def _cached(self, key: str, build):
        with self._cache_lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    # -- initialization ----------------------------------------------------

    def _power_init(self, sweeps: int = 15) -> tuple[np.ndarray, np.ndarray]:
        # Power iterations on the cross-covariance, from a fixed internal
        # seed so init="svd" is bit-reproducible.
        rng = np.random.default_rng(0xC0FFEE)
        v = rng.standard_normal(self.y.shape[1])
        v /= math.sqrt(float(v @ v))
        u = np.zeros(self.x.shape[1])
        for _ in range(sweeps):
            u = self.x.T @ (self.y @ v)
            nu = math.sqrt(float(u @ u))
            if nu == 0.0:
                raise ValueError("zero cross-covariance; alignment direction undefined")
            u /= nu
            v = self.y.T @ (self.x @ u)
            nv = math.sqrt(float(v @ v))
            if nv == 0.0:
                raise ValueError("zero cross-covariance; alignment direction undefined")
            v /= nv
        return u, v

    def fit_cca(self) -> AlignmentPair:
        """Top singular pair of the cross-covariance, rescaled so
        ||Xu||_2 = ||Yv||_2 = 1; the objective is the achieved canonical
        correlation of the (centered) scores.  Exact and Gram-free: with thin
        SVDs X = Ux Sx Vx^T and Y = Uy Sy Vy^T, the pair is (Vx a, Vy b) for
        the top singular pair (a, b) of the small core Sx Ux^T Uy Sy."""
        ux, sx, vxt = np.linalg.svd(self.x, full_matrices=False)
        uy, sy, vyt = np.linalg.svd(self.y, full_matrices=False)
        a, s, bt = np.linalg.svd(sx[:, None] * (ux.T @ uy) * sy)
        if s[0] == 0.0:
            raise ValueError("zero cross-covariance; alignment direction undefined")
        # ||X Vx a||_2 = ||Sx a||_2, so dividing by it gives unit-norm scores.
        u = vxt.T @ (a[:, 0] / np.linalg.norm(sx * a[:, 0]))
        v = vyt.T @ (bt[0] / np.linalg.norm(sy * bt[0]))
        sign = canonical_sign(u)  # <Xu, Yv> is invariant under (u, v) -> (-u, -v)
        u, v = sign * u, sign * v
        objective = float((self.x @ u) @ (self.y @ v))
        return AlignmentPair(
            u=u,
            v=v,
            objective=objective,
            support_u=np.flatnonzero(u),
            support_v=np.flatnonzero(v),
            iterations=1,
            converged=True,
            objective_trace=np.array([objective]),
        )

    # -- sparse fit ----------------------------------------------------------

    def _half_step(self, which: str, c: float, d: float):
        """Map (g, current point w) to a maximizer of g @ w over
        {w : ||Mw||_2 <= 1, ||w||_1 <= c, ||w||_2 <= d}, and whether the
        splitting stopped at its cap.

        The maximizer over the l1/l2 intersection, which holds the full
        set, is exact when it also satisfies ||Mw||_2 <= 1; after spectral
        scaling ||Mw|| <= ||w|| <= d, so always when d <= 1.  Otherwise the
        splitting runs, from w (or that maximizer, at the start).  Dividing
        by the largest relative constraint violation then restores exact
        feasibility: all sets are star-shaped around the origin.
        """
        m = self.x if which == "x" else self.y

        def step(g: np.ndarray, w: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
            best = _lmo_l1_l2(g, c, d)
            score = m @ best
            capped = False
            if float(score @ score) > 1.0 + 1e-12:
                ell = self._cached("ell_" + which, lambda: _EllipsoidProjection(m))
                best, capped = _maximize_on_intersection(
                    g, best if w is None else w, c, d, ell)
                score = m @ best
            factor = max(math.sqrt(float(best @ best)) / d, float(np.abs(best).sum()) / c,
                         math.sqrt(float(score @ score)))
            if factor > 1.0:
                best = best / factor
            return best, capped

        return step

    def fit(
        self, params: SccaParams, init: str = "svd", seed: int = 0
    ) -> AlignmentPair:
        """Alternating maximization of <Xu, Yv> under the elastic-net
        constraint sets; a half-step is kept only if it improves its linear
        objective.  converged=False flags hitting max_iters before the
        objective stalls below tol."""
        if init not in _INIT_MODES:
            raise ValueError(f"init must be one of {_INIT_MODES}, got {init!r}")
        step_u = self._half_step("x", params.c1, params.d1)
        step_v = self._half_step("y", params.c2, params.d2)
        if init == "svd":
            u0, v0 = self._cached("power_init", self._power_init)
        else:
            rng = replicate_rng(seed, STREAM_SCCA_INIT, 0)
            u0 = rng.standard_normal(self.x.shape[1])
            v0 = rng.standard_normal(self.y.shape[1])
        (u, cap_u), (v, cap_v) = step_u(u0), step_v(v0)
        cap_hits = cap_u + cap_v
        obj = float((self.x @ u) @ (self.y @ v))
        trace = [obj]
        for it in range(1, params.max_iters + 1):
            gu = self.x.T @ (self.y @ v)
            cand, capped = step_u(gu, u)
            cap_hits += capped
            if float(gu @ cand) > float(gu @ u):
                u = cand
            gv = self.y.T @ (self.x @ u)
            cand, capped = step_v(gv, v)
            cap_hits += capped
            if float(gv @ cand) > float(gv @ v):
                v = cand
            new_obj = float((self.x @ u) @ (self.y @ v))
            trace.append(new_obj)
            converged = new_obj - obj <= params.tol * max(1.0, abs(new_obj))
            obj = new_obj
            if converged:
                break
        # <Xu, Yv> is unchanged, bit for bit, by (u, v) -> (-u, -v).
        sign = canonical_sign(u)
        u, v = sign * u, sign * v
        return AlignmentPair(
            u=u,
            v=v,
            objective=obj,
            support_u=np.flatnonzero(u),
            support_v=np.flatnonzero(v),
            iterations=it,
            converged=converged,
            objective_trace=np.array(trace),
            split_cap_hits=int(cap_hits),
        )


def fit_cca(x: np.ndarray, y: np.ndarray) -> AlignmentPair:
    """Plain CCA on centered matrices (no sparsity constraints)."""
    return SccaSolver(x, y).fit_cca()


def fit_scca(
    x: np.ndarray,
    y: np.ndarray,
    params: SccaParams,
    init: str = "svd",
    seed: int = 0,
) -> AlignmentPair:
    """Elastic-net sparse CCA on centered (usually standardized) matrices."""
    return SccaSolver(x, y).fit(params, init=init, seed=seed)
