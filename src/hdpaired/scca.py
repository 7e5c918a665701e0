"""Plain and elastic-net sparse canonical correlation analysis.

fit_cca computes the top singular pair of the empirical cross-covariance
exactly, from the thin SVDs of X and Y and one SVD of their small core, and
rescales so the projected scores have unit norm.  fit_scca solves

    maximize  <Xu, Yv>
    s.t.      ||Xu||2 <= 1, ||u||1 <= c1, ||u||2 <= d1   (and same for v)

with 0 < d1, d2 <= 1 on matrices with ||X||2, ||Y||2 <= 1, by alternating
over u and v.  Then ||Xu||2 <= ||u||2 <= d1 <= 1 for every u in the l1/l2
ball, so the score-norm cap is implied.  Each half-step maximizes a linear
function g @ w over that ball, in closed form (_lmo_l1_l2: a
soft-threshold of g rescaled to norm d, the PMD update of Witten,
Tibshirani & Hastie 2009).  The p x q cross-covariance is never
materialized.  Every l1/l2 step, that maximization and the l1, l2 and
l1/l2 projections alike, finds its threshold with one routine,
_soft_threshold, which measures it from the largest entry and so is exact
at any magnitude whose squares stay normal floats.

The biconvex problem has no known globally optimal algorithm; the returned
pair is a feasible point with a nondecreasing objective trace.

Note on scaling: the l1/l2 bounds bite relative to the scale of the input
matrices.  model_selection.spectral_scale gives the factor that divides a
standardized matrix by its top singular value; fit_model and
cv_grid_search (and so the CLI) apply it to both sides, and the useful l1
range is then exactly [1, sqrt(dim)].  The solver does not check ||X||2
up front, which would take one more SVD per solver.  A half-step whose
l1/l2 maximizer has scores of norm above 1 raises instead, naming the
side; every half-step that does not raise is exact.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from hdpaired._util import STREAM_SCCA_INIT, canonical_sign, pearson_or_nan, replicate_rng

_INIT_MODES = ("svd", "seeded-random")


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
        if not (0 < self.d1 <= 1 and 0 < self.d2 <= 1):
            raise ValueError(f"l2 bounds must lie in (0, 1], got ({self.d1}, {self.d2})")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class AlignmentPair:
    """Fitted alignment vectors with sparsity metadata.

    objective is <Xu, Yv> on the training data; objective_trace records the
    value after each alternation step and is nondecreasing within
    floating-point tolerance.
    """

    u: np.ndarray
    v: np.ndarray
    objective: float
    support_u: np.ndarray
    support_v: np.ndarray
    iterations: int
    converged: bool
    objective_trace: np.ndarray


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


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays, once they are 2-D, row-aligned and finite."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"row-aligned 2-D matrices required: {x.shape} vs {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite entries in input matrices")
    return x, y


class SccaSolver:
    """Reusable solver for one (X, Y) pair, each of spectral norm at most 1
    (see the module's note on scaling).  The power-iteration start is
    built by the first init="svd" fit and shared across parameter settings
    (cross-validation fits many cells on the same fold matrices, possibly
    from several threads); seeded-random fits never build it."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = _check_pair(x, y)
        self._start = None
        self._start_lock = threading.Lock()

    def _power_init(self, sweeps: int = 15) -> tuple[np.ndarray, np.ndarray]:
        # Power iterations on the cross-covariance, from a fixed internal
        # seed so init="svd" is bit-reproducible.
        rng = np.random.default_rng(0xC0FFEE)
        v = rng.standard_normal(self.y.shape[1])
        v /= math.sqrt(float(v @ v))
        mats, w = (self.x, self.y), [np.zeros(self.x.shape[1]), v]
        for _ in range(sweeps):
            for k in (0, 1):
                g = mats[k].T @ (mats[1 - k] @ w[1 - k])
                norm = math.sqrt(float(g @ g))
                if norm == 0.0:
                    raise ValueError("zero cross-covariance; alignment direction undefined")
                w[k] = g / norm
        return w[0], w[1]

    # -- sparse fit ----------------------------------------------------------

    def _half_step(self, which: str, c: float, d: float):
        """Map g to the maximizer of g @ w over {w : ||Mw||_2 <= 1,
        ||w||_1 <= c, ||w||_2 <= d} and its scores M @ w.

        The maximizer over the l1/l2 ball, which holds the full set, is the
        maximizer over the full set whenever its scores have norm at most 1:
        always when ||M||_2 <= 1 and d <= 1.  Scores of larger norm, beyond
        rounding, mean that M was not spectrally scaled, and raise.  Dividing
        by the largest relative constraint violation keeps the point exactly
        feasible under rounding: all sets are star-shaped around the origin.
        The scores are formed again only for a point so rescaled.
        """
        m = self.x if which == "x" else self.y

        def step(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            best = _lmo_l1_l2(g, c, d)
            score = m @ best
            if float(score @ score) > 1.0 + 1e-12:
                raise ValueError(
                    f"{which} side: the l1/l2 maximizer has scores of norm "
                    f"{math.sqrt(float(score @ score)):.6g} > 1; scale each matrix by "
                    f"model_selection.spectral_scale, as fit_model and cv_grid_search do")
            factor = max(math.sqrt(float(best @ best)) / d, float(np.abs(best).sum()) / c,
                         math.sqrt(float(score @ score)))
            if factor > 1.0:
                best = best / factor
                score = m @ best
            return best, score

        return step

    def fit(
        self, params: SccaParams, init: str = "svd", seed: int = 0
    ) -> AlignmentPair:
        """Alternating maximization of <Xu, Yv> under the elastic-net
        constraint sets; a half-step is kept only if it improves its linear
        objective.  converged=False flags hitting max_iters before the
        objective stalls below tol.  Both sides, k = 0 for (X, u) and 1 for
        (Y, v), run one body and carry the scores their half-steps formed."""
        if init not in _INIT_MODES:
            raise ValueError(f"init must be one of {_INIT_MODES}, got {init!r}")
        mats = (self.x, self.y)
        steps = (self._half_step("x", params.c1, params.d1),
                 self._half_step("y", params.c2, params.d2))
        if init == "svd":
            with self._start_lock:
                if self._start is None:
                    self._start = self._power_init()
            points = list(self._start)
        else:
            rng = replicate_rng(seed, STREAM_SCCA_INIT)
            points = [rng.standard_normal(m.shape[1]) for m in mats]
        scores = [None, None]
        for k in (0, 1):
            points[k], scores[k] = steps[k](points[k])
        obj = float(scores[0] @ scores[1])
        trace = [obj]
        for it in range(1, params.max_iters + 1):
            for k in (0, 1):
                g = mats[k].T @ scores[1 - k]
                cand, score = steps[k](g)
                if float(g @ cand) > float(g @ points[k]):
                    points[k], scores[k] = cand, score
            new_obj = float(scores[0] @ scores[1])
            trace.append(new_obj)
            converged = new_obj - obj <= params.tol * max(1.0, abs(new_obj))
            obj = new_obj
            if converged:
                break
        # <Xu, Yv> is unchanged, bit for bit, by (u, v) -> (-u, -v).
        sign = canonical_sign(points[0])
        u, v = sign * points[0], sign * points[1]
        return AlignmentPair(
            u=u,
            v=v,
            objective=obj,
            support_u=np.flatnonzero(u),
            support_v=np.flatnonzero(v),
            iterations=it,
            converged=converged,
            objective_trace=np.array(trace),
        )


def fit_cca(x: np.ndarray, y: np.ndarray) -> AlignmentPair:
    """Plain CCA on centered matrices (no sparsity constraints): the top
    singular pair of the cross-covariance, rescaled so ||Xu||_2 = ||Yv||_2 =
    1; the objective is the achieved canonical correlation of the (centered)
    scores.  Exact and Gram-free: with thin SVDs X = Ux Sx Vx^T and
    Y = Uy Sy Vy^T, the pair is (Vx a, Vy b) for the top singular pair
    (a, b) of the small core Sx Ux^T Uy Sy."""
    x, y = _check_pair(x, y)
    ux, sx, vxt = np.linalg.svd(x, full_matrices=False)
    uy, sy, vyt = np.linalg.svd(y, full_matrices=False)
    a, s, bt = np.linalg.svd(sx[:, None] * (ux.T @ uy) * sy)
    if s[0] == 0.0:
        raise ValueError("zero cross-covariance; alignment direction undefined")
    # ||X Vx a||_2 = ||Sx a||_2, so dividing by it gives unit-norm scores.
    u = vxt.T @ (a[:, 0] / np.linalg.norm(sx * a[:, 0]))
    v = vyt.T @ (bt[0] / np.linalg.norm(sy * bt[0]))
    sign = canonical_sign(u)  # <Xu, Yv> is invariant under (u, v) -> (-u, -v)
    u, v = sign * u, sign * v
    objective = float((x @ u) @ (y @ v))
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


def fit_scca(
    x: np.ndarray,
    y: np.ndarray,
    params: SccaParams,
    init: str = "svd",
    seed: int = 0,
) -> AlignmentPair:
    """Elastic-net sparse CCA on centered (usually standardized) matrices."""
    return SccaSolver(x, y).fit(params, init=init, seed=seed)
