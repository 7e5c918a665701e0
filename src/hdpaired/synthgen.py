"""Synthetic paired datasets with known ground truth.

Three generators cover the three regimes every inference path is verified
against: an exact null (independent modalities), a shared scalar latent
that induces positive distance correlation, and a planted sparse canonical
pair for recovery scoring.

All generators are pure functions of their arguments (normal variates come
from numpy's ziggurat via Generator.standard_normal, keyed by the seed), so
repeated calls agree bit-exactly.  Planted directions are sign-canonicalized
(largest-magnitude entry positive): a direction's sign is statistically
unidentifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hdpaired._util import (
    STREAM_POPULATION_MC,
    STREAM_SYNTH_LATENT,
    STREAM_SYNTH_NULL,
    STREAM_SYNTH_PLANTED,
    canonical_sign,
    replicate_rng,
)
from hdpaired.matrixio import FeatureMatrix, PairedDataset, pair

_KINDS = ("null", "shared-latent", "sparse-canonical-pair")


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth for a synthetic dataset.

    u_star/v_star are the planted unit alignment vectors (sparse-canonical
    -pair only); latent_correlation is the generator's strength/rho knob.
    """

    kind: str
    latent_correlation: float
    u_star: np.ndarray | None = None
    v_star: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for w in (self.u_star, self.v_star):
            if w is not None and abs(math.sqrt(float(w @ w)) - 1.0) > 1e-9:
                raise ValueError("planted vectors must have unit l2 norm")

    @property
    def support_u(self) -> np.ndarray:
        if self.u_star is None:
            raise ValueError(f"no planted supports for kind {self.kind!r}")
        return np.flatnonzero(self.u_star)

    @property
    def support_v(self) -> np.ndarray:
        if self.v_star is None:
            raise ValueError(f"no planted supports for kind {self.kind!r}")
        return np.flatnonzero(self.v_star)


def _check_sizes(n: int, p: int, q: int) -> None:
    """Every generator needs n >= 4 subjects and p, q >= 1 features."""
    for name, size, floor in (("n", n, 4), ("p", p, 1), ("q", q, 1)):
        if size < floor:
            raise ValueError(f"need {name} >= {floor}, got {size}")


def _ids(n: int) -> tuple[str, ...]:
    return tuple(f"s{i:04d}" for i in range(n))


def _paired(x: np.ndarray, y: np.ndarray, n: int) -> PairedDataset:
    ids = _ids(n)
    return pair(FeatureMatrix(x, ids), FeatureMatrix(y, ids))


def gen_null(n: int, p: int, q: int, seed: int = 0) -> PairedDataset:
    """Independent i.i.d. standard-normal modalities: the exact null."""
    _check_sizes(n, p, q)
    rng = replicate_rng(seed, STREAM_SYNTH_NULL)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, q))
    return _paired(x, y, n)


def gen_shared_latent(
    n: int,
    p: int,
    q: int,
    strength: float,
    seed: int = 0,
) -> tuple[PairedDataset, PlantedTruth]:
    """Positive distance correlation through a shared per-subject scalar.

    x_i = strength * g_i * a + sqrt(1 - strength^2) * noise (same for y with
    direction b), with g_i ~ N(0,1) and fixed random unit directions a, b.
    Subjects with distant latents are distant in both modalities, so the two
    distance matrices correlate positively.  The noise scaling makes
    strength interpolate between the exact null (strength=0, identical to
    gen_null's distribution) and a pure rank-one latent (strength=1); with
    unscaled unit noise the induced distance correlation is too weak to be
    detectable at bench sizes.
    """
    _check_sizes(n, p, q)
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    rng = replicate_rng(seed, STREAM_SYNTH_LATENT)
    g = rng.standard_normal(n)
    noise_sd = math.sqrt(1.0 - strength * strength)
    ex = rng.standard_normal((n, p))
    ey = rng.standard_normal((n, q))
    a = rng.standard_normal(p)
    b = rng.standard_normal(q)
    a = a / math.sqrt(float(a @ a))
    b = b / math.sqrt(float(b @ b))
    a, b = canonical_sign(a) * a, canonical_sign(b) * b
    x = strength * np.outer(g, a) + noise_sd * ex
    y = strength * np.outer(g, b) + noise_sd * ey
    truth = PlantedTruth(kind="shared-latent", latent_correlation=strength)
    return _paired(x, y, n), truth


def gen_sparse_canonical_pair(
    n: int,
    p: int,
    q: int,
    s_u: int,
    s_v: int,
    rho: float,
    seed: int = 0,
) -> tuple[PairedDataset, PlantedTruth]:
    """Planted sparse canonical pair with latent correlation rho.

    (z_x, z_y) is bivariate normal with correlation rho; u*, v* are sparse
    unit vectors (uniform random supports, equal-magnitude +/- entries);
    X = z_x u*^T + E, Y = z_y v*^T + F.

    Noise is drawn i.i.d. standard normal, orthogonalized against the
    planted direction, and scaled by 0.3 on the planted columns
    (off-support columns keep unit noise).  The orthogonalization makes the
    oracle projections exact (X u* = z_x, Y v* = z_y), so their
    sample correlation converges to rho; the support attenuation keeps the
    planted block identifiable at bench sizes, where equal-scale noise
    drowns the rank-one cross-covariance signal in spurious sparse
    correlations.
    """
    _check_sizes(n, p, q)
    if not (1 <= s_u <= p and 1 <= s_v <= q):
        raise ValueError(f"supports (s_u={s_u}, s_v={s_v}) out of range for (p={p}, q={q})")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    rng = replicate_rng(seed, STREAM_SYNTH_PLANTED)
    z_x = rng.standard_normal(n)
    z_y = rho * z_x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)

    def planted(dim: int, s: int) -> np.ndarray:
        support = np.sort(rng.choice(dim, size=s, replace=False))
        signs = rng.choice([-1.0, 1.0], size=s)
        w = np.zeros(dim)
        w[support] = signs / math.sqrt(s)
        return canonical_sign(w) * w

    u_star = planted(p, s_u)
    v_star = planted(q, s_v)
    ex = rng.standard_normal((n, p))
    ey = rng.standard_normal((n, q))
    ex = ex - np.outer(ex @ u_star, u_star)
    ey = ey - np.outer(ey @ v_star, v_star)
    # Constant attenuation on the support keeps the orthogonality exact:
    # E_orth @ (scale * u*) = scale * (E_orth @ u*) = 0.
    x = np.outer(z_x, u_star) + ex * np.where(u_star != 0.0, 0.3, 1.0)
    y = np.outer(z_y, v_star) + ey * np.where(v_star != 0.0, 0.3, 1.0)
    truth = PlantedTruth(
        kind="sparse-canonical-pair",
        latent_correlation=rho,
        u_star=u_star,
        v_star=v_star,
    )
    return _paired(x, y, n), truth


def shared_latent_population_r(
    p: int,
    q: int,
    strength: float,
    n_pairs: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the population distance-pair correlation
    under the shared-latent generator: the Pearson correlation between
    d_X(x, x') and d_Y(y, y') over independent subject pairs.

    Directions are drawn fresh per pair, i.e. the estimate marginalizes the
    direction draw; a dataset's direction-conditional value differs only at
    O(1/dim).
    """
    rng = replicate_rng(seed, STREAM_POPULATION_MC)
    dxs = []
    dys = []
    done = 0
    while done < n_pairs:
        m = min(20_000, n_pairs - done)  # the chunk fixes the draw order
        g = rng.standard_normal((2, m))
        noise_sd = math.sqrt(1.0 - strength * strength)
        a = rng.standard_normal((m, p))
        a /= np.sqrt(np.einsum("ij,ij->i", a, a))[:, None]
        b = rng.standard_normal((m, q))
        b /= np.sqrt(np.einsum("ij,ij->i", b, b))[:, None]
        ex = rng.standard_normal((2, m, p))
        ey = rng.standard_normal((2, m, q))
        diff_x = noise_sd * (ex[0] - ex[1]) + strength * (g[0] - g[1])[:, None] * a
        dx = np.sqrt(np.einsum("ij,ij->i", diff_x, diff_x)) / p
        ya = noise_sd * ey[0] + strength * g[0][:, None] * b
        yb = noise_sd * ey[1] + strength * g[1][:, None] * b
        ca = ya - ya.mean(axis=1, keepdims=True)
        cb = yb - yb.mean(axis=1, keepdims=True)
        num = np.einsum("ij,ij->i", ca, cb)
        den = np.sqrt(np.einsum("ij,ij->i", ca, ca) * np.einsum("ij,ij->i", cb, cb))
        dy = 1.0 - num / den
        dxs.append(dx)
        dys.append(dy)
        done += m
    dx = np.concatenate(dxs)
    dy = np.concatenate(dys)
    return float(np.corrcoef(dx, dy)[0, 1])
