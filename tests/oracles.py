"""Independent brute-force oracles used by the test suite.

Every oracle here deliberately recomputes its target from first principles
(plain loops, direct formulas), staying independent of the library code
paths it checks.
"""

import math

import numpy as np


def naive_pearson(a, b):
    a = list(map(float, a))
    b = list(map(float, b))
    k = len(a)
    ma = sum(a) / k
    mb = sum(b) / k
    num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = sum((x - ma) ** 2 for x in a)
    db = sum((y - mb) ** 2 for y in b)
    return num / math.sqrt(da * db)


def naive_scaled_euclidean(x, y):
    acc = 0.0
    for xi, yi in zip(x, y):
        acc += (float(xi) - float(yi)) ** 2
    return math.sqrt(acc) / len(x)


def naive_euclidean(x, y):
    acc = 0.0
    for xi, yi in zip(x, y):
        acc += (float(xi) - float(yi)) ** 2
    return math.sqrt(acc)


def naive_correlation_distance(x, y):
    return 1.0 - naive_pearson(x, y)


def naive_distance_matrix(data, metric):
    n = data.shape[0]
    out = np.zeros((n, n))
    fns = {
        "scaled_euclidean": naive_scaled_euclidean,
        "euclidean": naive_euclidean,
        "pearson_correlation_distance": naive_correlation_distance,
    }
    fn = fns[metric]
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = fn(data[i], data[j])
    return out


def average_ranks(values):
    """Fractional ranks with ties averaged, 1-based."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def brute_spearman(a, b):
    return naive_pearson(average_ranks(list(a)), average_ranks(list(b)))


def brute_kendall_tau_b(a, b):
    """O(k^2) pair counting, tau-b tie correction."""
    a = list(map(float, a))
    b = list(map(float, b))
    k = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(k):
        for j in range(i + 1, k):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif da * db > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = k * (k - 1) // 2
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    return (concordant - discordant) / denom


def brute_ucentered(d):
    """Per-cell evaluation of the U-centering formula."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    out = np.zeros_like(d)
    grand = float(d.sum())
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            out[i, j] = (
                d[i, j]
                - d[i, :].sum() / (n - 2)
                - d[:, j].sum() / (n - 2)
                + grand / ((n - 1) * (n - 2))
            )
    return out


def brute_bias_corrected_dcor(x, y):
    """Unbiased distance correlation from scratch: Euclidean distances by
    double loop, per-cell U-centering, direct double sums."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    dx = naive_distance_matrix(x, "euclidean")
    dy = naive_distance_matrix(y, "euclidean")
    ux = brute_ucentered(dx)
    uy = brute_ucentered(dy)
    scale = n * (n - 3)
    vxy = sum(ux[i, j] * uy[i, j] for i in range(n) for j in range(n) if i != j) / scale
    vx = sum(ux[i, j] ** 2 for i in range(n) for j in range(n) if i != j) / scale
    vy = sum(uy[i, j] ** 2 for i in range(n) for j in range(n) if i != j) / scale
    return vxy / math.sqrt(vx * vy)


def naive_complete_linkage_merges(d):
    """Agglomerative complete linkage recomputing every inter-cluster
    distance from the original matrix at every step; ties break toward the
    smallest (min member, min member) pair."""
    d = np.asarray(d, dtype=float)
    f = d.shape[0]
    clusters = [[i] for i in range(f)]
    merges = []
    while len(clusters) > 1:
        # keys order by height first, then the (min member, min member) pair
        best = None
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                height = max(d[i, j] for i in clusters[ai] for j in clusters[bi])
                key = (
                    height,
                    min(min(clusters[ai]), min(clusters[bi])),
                    max(min(clusters[ai]), min(clusters[bi])),
                )
                if best is None or key < best[0]:
                    best = (key, ai, bi)
        (height, lo, hi), ai, bi = best
        merges.append((lo, hi, height))
        merged = sorted(clusters[ai] + clusters[bi])
        clusters = [c for k, c in enumerate(clusters) if k not in (ai, bi)]
        clusters.append(merged)
    return merges


def argmin_complete_linkage_merges(d):
    """Complete linkage by an argmin over the whole working matrix at every
    step, O(f^3): the first row-major argmin is the lexicographically
    smallest (a, b), a < b, at the minimum height.  The i < j entries are
    mirrored, each cluster lives in the row of its minimum member, and a
    merge keeps the maxima of both rows (Lance-Williams)."""
    d = np.asarray(d, dtype=float)
    f = d.shape[0]
    i = np.arange(f)
    work = np.where(i[:, None] < i, d, d.T)
    np.fill_diagonal(work, np.inf)
    merges = []
    for _ in range(f - 1):
        a, b = divmod(int(work.argmin()), f)
        merges.append((a, b, float(work[a, b])))
        np.maximum(work[a], work[b], out=work[a])
        work[:, a] = work[a]
        work[b] = np.inf
        work[:, b] = np.inf
    return merges


def bilinear_bandpass_gain(freq, f_low, f_high, fs):
    """|H| of the first-order digital Butterworth bandpass at `freq`,
    evaluated analytically through the bilinear transform with prewarping:
    the analog prototype B s / (s^2 + B s + w0^2) at s = j * 2 fs tan(pi f / fs),
    with B and w0 from the prewarped band edges."""
    warp = lambda f: 2.0 * fs * math.tan(math.pi * f / fs)
    w1, w2 = warp(f_low), warp(f_high)
    bw = w2 - w1
    w0sq = w1 * w2
    s = 1j * warp(freq)
    return abs(bw * s / (s * s + bw * s + w0sq))


def fit_sinusoid_amplitude(signal, freq, fs, skip=0):
    """Least-squares amplitude of a sinusoid at `freq` in `signal`."""
    x = np.asarray(signal, dtype=float)[skip : len(signal) - skip if skip else None]
    t = np.arange(skip, skip + x.size) / fs
    design = np.column_stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)])
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def plain_scca_alternation(x, y, c1, c2, d1=1.0, d2=1.0, max_iters=500, tol=1e-6,
                           start=None):
    """Sparse CCA by plain alternation, each side's half-step written out on
    its own and every score product x @ u, y @ v formed afresh where it is
    used.  Only the l1/l2 maximizer comes from hdpaired.scca.  start =
    (u0, v0) replaces the 15 power-iteration sweeps from the fixed seed.
    Returns (u, v, objective, objective_trace, iterations, converged)."""
    from hdpaired import scca

    def half_step(m, g, c, d):
        best = scca._lmo_l1_l2(g, c, d)
        factor = max(math.sqrt(float(best @ best)) / d, float(np.abs(best).sum()) / c,
                     math.sqrt(float((m @ best) @ (m @ best))))
        return best / factor if factor > 1.0 else best

    if start is None:
        rng = np.random.default_rng(0xC0FFEE)
        v = rng.standard_normal(y.shape[1])
        v /= math.sqrt(float(v @ v))
        for _ in range(15):
            u = x.T @ (y @ v)
            u /= math.sqrt(float(u @ u))
            v = y.T @ (x @ u)
            v /= math.sqrt(float(v @ v))
    else:
        u, v = start
    u = half_step(x, u, c1, d1)
    v = half_step(y, v, c2, d2)
    obj = float((x @ u) @ (y @ v))
    trace = [obj]
    for it in range(1, max_iters + 1):
        gu = x.T @ (y @ v)
        cand = half_step(x, gu, c1, d1)
        if float(gu @ cand) > float(gu @ u):
            u = cand
        gv = y.T @ (x @ u)
        cand = half_step(y, gv, c2, d2)
        if float(gv @ cand) > float(gv @ v):
            v = cand
        new_obj = float((x @ u) @ (y @ v))
        trace.append(new_obj)
        converged = new_obj - obj <= tol * max(1.0, abs(new_obj))
        obj = new_obj
        if converged:
            break
    # the sign that makes u's first largest-magnitude entry positive
    sign = -1.0 if u[int(np.argmax(np.abs(u)))] < 0 else 1.0
    return sign * u, sign * v, obj, np.array(trace), it, converged
