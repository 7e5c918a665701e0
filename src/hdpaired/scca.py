"""Plain and elastic-net sparse canonical correlation analysis.

fit_cca computes the top singular pair of the empirical cross-covariance
(by Gram-free power iteration) and rescales so the projected scores have
unit norm.  fit_scca solves

    maximize  <Xu, Yv>
    s.t.      ||Xu||2 <= 1, ||u||1 <= c1, ||u||2 <= d1   (and same for v)

by alternating over u and v.  Each half-step is a linear objective over a
convex set, maximized with projected gradient ascent and backtracking; the
feasible-set projection is a Dykstra alternation over the l1 ball, the l2
ball and the ellipsoid {w : ||Xw||2 <= 1}.  Only matrix-vector products
with X and Y are used; the p x q cross-covariance is never materialized.

The biconvex problem has no known globally optimal algorithm; the returned
pair is a feasible point with a nondecreasing objective trace.

Note on scaling: the l1/l2 bounds bite relative to the scale of the input
matrices.  The cross-validation pipeline divides each standardized matrix
by its top singular value, so ||X u|| <= ||u|| holds for every u, the
score-norm cap is implied by the unit l2 ball, and the useful l1 range is
exactly [1, sqrt(dim)].  On unscaled matrices all three constraint sets
can be active; the solver handles the general case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hdpaired._util import STREAM_SCCA_INIT, replicate_rng

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
    value after each accepted alternation step and is nondecreasing within
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
    a = sx - sx.mean()
    b = sy - sy.mean()
    na = float(a @ a)
    nb = float(b @ b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("constant scores; correlation undefined")
    return float(a @ b) / math.sqrt(na * nb)


def project_l1_ball(w: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto {w : ||w||_1 <= c} (sort-based)."""
    a = np.abs(w)
    if a.sum() <= c:
        return w.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, a.size + 1)
    rho = np.nonzero(u * k > css - c)[0][-1]
    theta = (css[rho] - c) / (rho + 1.0)
    return np.sign(w) * np.maximum(a - theta, 0.0)


def project_l2_ball(w: np.ndarray, d: float) -> np.ndarray:
    nrm = math.sqrt(float(w @ w))
    if nrm <= d:
        return w.copy()
    return w * (d / nrm)


class _EllipsoidProjection:
    """Euclidean projection onto {w : ||M w||_2 <= 1} via a thin SVD of M.

    Components of w in the null space of M are free; row-space coordinates
    are shrunk by 1/(1 + lam * s_i^2) with lam >= 0 solving the secular
    equation sum_i s_i^2 w_i^2 / (1 + lam s_i^2)^2 = 1.  phi(lam) is convex
    and decreasing, so Newton from lam=0 approaches the root from the left
    and converges quadratically.
    """

    def __init__(self, m: np.ndarray):
        u, s, vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=False)
        keep = s > (s[0] * 1e-13 if s.size and s[0] > 0 else 0.0)
        self.s2 = s[keep] ** 2
        self.vt = np.ascontiguousarray(vt[keep])

    def value(self, z: np.ndarray) -> float:
        w = self.vt @ z
        return float(self.s2 @ (w * w))

    def __call__(self, z: np.ndarray, lam_hint: float = 0.0) -> np.ndarray:
        out, _ = self.project(z, lam_hint)
        return out

    def project(self, z: np.ndarray, lam_hint: float = 0.0) -> tuple[np.ndarray, float]:
        """Project z; lam_hint warm-starts the Newton solve (the root moves
        little between consecutive Dykstra sweeps)."""
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
            lam -= (phi - 1.0) / dphi
            denom = 1.0 + lam * self.s2
            phi = float(sw2 @ (1.0 / (denom * denom)))
        w_new = w / denom
        return z + self.vt.T @ (w_new - w), lam


def _maximize_linear(g, w0, feasible_proj, max_steps: int = 8, rel_tol: float = 1e-9):
    """Maximize g @ w over a convex set via projected gradient with backtracking.

    Starts from the feasible point w0 and only accepts improving steps, so
    the returned point never has a smaller objective than the start.
    """
    w = w0
    f = float(g @ w)
    gnorm = math.sqrt(float(g @ g))
    if gnorm == 0.0:
        return w
    step = (math.sqrt(float(w @ w)) + 1.0) / gnorm
    for _ in range(max_steps):
        accepted = False
        s = step
        for _ in range(14):
            cand = feasible_proj(w + s * g)
            fc = float(g @ cand)
            if fc > f:
                improvement = fc - f
                w, f = cand, fc
                step = s * 2.0
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        if improvement <= rel_tol * max(1.0, abs(f)):
            break
    return w


def _sign_canonical(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Joint flip so the largest-magnitude entry of u is positive; the
    # objective <Xu, Yv> is invariant under (u, v) -> (-u, -v).
    i = int(np.argmax(np.abs(u)))
    if u[i] < 0:
        return -u, -v
    return u, v


class SccaSolver:
    """Reusable solver for one (X, Y) pair: the SVD-based ellipsoid
    projections are precomputed once and shared across parameter settings
    (cross-validation fits many cells on the same fold matrices)."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError(f"row-aligned 2-D matrices required: {x.shape} vs {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite entries in input matrices")
        self.x = x
        self.y = y
        self._ell_x = _EllipsoidProjection(x)
        self._ell_y = _EllipsoidProjection(y)

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

    def fit_cca(self, max_iters: int = 5000, tol: float = 1e-14) -> AlignmentPair:
        """Top singular pair of the cross-covariance, rescaled so
        ||Xu||_2 = ||Yv||_2 = 1; the objective is the achieved canonical
        correlation of the (centered) scores."""
        u, v = self._power_init(sweeps=1)
        obj = 0.0
        it = 0
        converged = False
        for it in range(1, max_iters + 1):
            u = self.x.T @ (self.y @ v)
            u /= math.sqrt(float(u @ u))
            v = self.y.T @ (self.x @ u)
            v /= math.sqrt(float(v @ v))
            new_obj = float(u @ (self.x.T @ (self.y @ v)))
            if abs(new_obj - obj) <= tol * max(1.0, abs(new_obj)):
                converged = True
                obj = new_obj
                break
            obj = new_obj
        sx = self.x @ u
        sy = self.y @ v
        nx = math.sqrt(float(sx @ sx))
        ny = math.sqrt(float(sy @ sy))
        if nx == 0.0 or ny == 0.0:
            raise ValueError("projected scores vanish; alignment direction undefined")
        u = u / nx
        v = v / ny
        u, v = _sign_canonical(u, v)
        objective = float((self.x @ u) @ (self.y @ v))
        return AlignmentPair(
            u=u,
            v=v,
            objective=objective,
            support_u=np.flatnonzero(u),
            support_v=np.flatnonzero(v),
            iterations=it,
            converged=converged,
            objective_trace=np.array([objective]),
        )

    # -- sparse fit ----------------------------------------------------------

    def _feasible_proj(self, which: str, c: float, d: float):
        """Approximate nearest-point map onto the constraint intersection.

        A capped Dykstra alternation gets close to the projection; exact
        feasibility is then restored by dividing by the largest relative
        constraint violation (all three sets are star-shaped around the
        origin, so the rescaled point lies exactly inside, and rescaling
        preserves the zero pattern from the final l1 projection).
        """
        ell = self._ell_x if which == "x" else self._ell_y
        dim = (self.x if which == "x" else self.y).shape[1]
        use_l1 = c < math.sqrt(dim) * d  # otherwise the l1 ball cannot bind

        def violation(w: np.ndarray) -> float:
            v = math.sqrt(max(float(w @ w), 0.0)) / d
            if use_l1:
                v = max(v, float(np.abs(w).sum()) / c)
            return max(v, math.sqrt(max(ell.value(w), 0.0)))

        def proj(z: np.ndarray) -> np.ndarray:
            if violation(z) <= 1.0 + 1e-12:
                return z
            x = z.copy()
            inc_ell = np.zeros_like(z)
            inc_l2 = np.zeros_like(z)
            inc_l1 = np.zeros_like(z)
            lam = 0.0
            for _ in range(30):
                x_prev = x
                y, lam = ell.project(x + inc_ell, lam)
                inc_ell = x + inc_ell - y
                x = y
                y = project_l2_ball(x + inc_l2, d)
                inc_l2 = x + inc_l2 - y
                x = y
                if use_l1:
                    y = project_l1_ball(x + inc_l1, c)
                    inc_l1 = x + inc_l1 - y
                    x = y
                if float(np.max(np.abs(x - x_prev))) <= 1e-9 * (
                    1.0 + float(np.max(np.abs(x)))
                ):
                    break
            factor = violation(x)
            if factor > 1.0:
                x = x / factor
            return x

        return proj

    def fit(
        self, params: SccaParams, init: str = "svd", seed: int = 0
    ) -> AlignmentPair:
        """Alternating convex maximization of <Xu, Yv> under the elastic-net
        constraint sets.  Returns the best feasible iterate; converged=False
        flags hitting max_iters before the objective stalls below tol."""
        if init not in _INIT_MODES:
            raise ValueError(f"init must be one of {_INIT_MODES}, got {init!r}")
        p = self.x.shape[1]
        q = self.y.shape[1]
        proj_u = self._feasible_proj("x", params.c1, params.d1)
        proj_v = self._feasible_proj("y", params.c2, params.d2)
        if init == "svd":
            u0, v0 = self._power_init()
        else:
            rng = replicate_rng(seed, STREAM_SCCA_INIT, 0)
            u0 = rng.standard_normal(p)
            v0 = rng.standard_normal(q)
        u = proj_u(u0)
        v = proj_v(v0)
        inner_tol = min(params.tol * 0.1, 1e-7)
        obj = float((self.x @ u) @ (self.y @ v))
        trace = [obj]
        converged = False
        it = 0
        for it in range(1, params.max_iters + 1):
            gu = self.x.T @ (self.y @ v)
            u = _maximize_linear(gu, u, proj_u, rel_tol=inner_tol)
            gv = self.y.T @ (self.x @ u)
            v = _maximize_linear(gv, v, proj_v, rel_tol=inner_tol)
            new_obj = float((self.x @ u) @ (self.y @ v))
            trace.append(new_obj)
            if new_obj - obj <= params.tol * max(1.0, abs(new_obj)):
                converged = True
                obj = new_obj
                break
            obj = new_obj
        u, v = _sign_canonical(u, v)
        return AlignmentPair(
            u=u,
            v=v,
            objective=float((self.x @ u) @ (self.y @ v)),
            support_u=np.flatnonzero(u),
            support_v=np.flatnonzero(v),
            iterations=it,
            converged=converged,
            objective_trace=np.array(trace),
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
