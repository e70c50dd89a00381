"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written the slow, obvious way -- plain loops,
support enumeration, direct formula transcriptions -- and never calls into the
package's own solvers, so oracle agreement is a genuine cross-check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# objectives


def objective_rkmc_bruteforce(views, u, center_mats, eta):
    """Element-wise summation of sum_v ||X_v - U M_v||_F^2 + eta * sum U^2."""
    total = 0.0
    for x, m in zip(views, center_mats):
        n, j = x.shape
        for i in range(n):
            for jj in range(j):
                recon = sum(u[i][kk] * m[kk][jj] for kk in range(len(m)))
                total += (x[i][jj] - recon) ** 2
    for row in u:
        for val in row:
            total += eta * val * val
    return total


def objective_online_bruteforce(views, u, center_mats, alpha, r, eta):
    total = 0.0
    for a, x, m in zip(alpha, views, center_mats):
        n, j = x.shape
        for i in range(n):
            for jj in range(j):
                recon = sum(u[i][kk] * m[kk][jj] for kk in range(len(m)))
                total += (a ** r) * (x[i][jj] - recon) ** 2
    for row in u:
        for val in row:
            total += eta * val * val
    return total


def assignment_qp_per_view(views, center_mats, w, eta):
    """``H = 2 (sum_v w_v M_v M_v' + eta I)`` and the rows ``c_i = 2 sum_v w_v
    M_v x_{v,i}`` of the assignment QP, one view at a time, every entry summed
    exactly by ``math.fsum``; ``views`` holds 2-D per-view sample matrices."""
    k = len(center_mats[0])
    n = len(views[0])
    h = [[2.0 * eta if a == b else 0.0 for b in range(k)] for a in range(k)]
    for a in range(k):
        for b in range(k):
            h[a][b] = math.fsum(
                [h[a][b]]
                + [
                    2.0 * wv * m[a][j] * m[b][j]
                    for wv, m in zip(w, center_mats)
                    for j in range(len(m[a]))
                ]
            )
    c = [
        [
            math.fsum(
                2.0 * wv * m[a][j] * x[i][j]
                for wv, x, m in zip(w, views, center_mats)
                for j in range(len(m[a]))
            )
            for a in range(k)
        ]
        for i in range(n)
    ]
    return np.array(h), np.array(c)


def view_residuals_per_view(views, u, center_mats):
    """``||X_v - U M_v||^2`` of each view, one view at a time, every residual
    entry and every view's sum of squares summed exactly by ``math.fsum``."""
    out = []
    for x, m in zip(views, center_mats):
        sq = []
        for i in range(len(x)):
            for j in range(len(m[0])):
                r = math.fsum([x[i][j]] + [-u[i][kk] * m[kk][j] for kk in range(len(m))])
                sq.append(r * r)
        out.append(math.fsum(sq))
    return np.array(out)


# ---------------------------------------------------------------------------
# simplex projection / row QP / NNLS by support enumeration


def project_simplex_enum(y):
    """Projection via KKT support enumeration: for each candidate support S,
    u = y - tau on S with tau = (sum_S y - 1)/|S|; keep the feasible one."""
    y = np.asarray(y, dtype=float)
    k = y.size
    best, best_val = None, np.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            s = list(support)
            tau = (y[s].sum() - 1.0) / size
            u = np.zeros(k)
            u[s] = y[s] - tau
            if np.any(u[s] < -1e-12):
                continue
            off = [i for i in range(k) if i not in support]
            if any(y[i] - tau > 1e-12 for i in off):
                continue
            val = float(np.sum((u - y) ** 2))
            if val < best_val:
                best, best_val = u, val
    return best


def row_qp_enum(h, c):
    """Exact minimizer of 1/2 u'Hu - c'u on the simplex by enumerating active
    sets: solve the equality-constrained system on each support, keep KKT-
    feasible candidates, return the best by objective."""
    h = np.asarray(h, dtype=float)
    c = np.asarray(c, dtype=float)
    k = c.size
    best, best_val = None, np.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            s = list(support)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = h[np.ix_(s, s)]
            kkt[:size, size] = -1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([c[s], [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            u_s, lam = sol[:size], sol[size]
            if np.any(u_s < -1e-9):
                continue
            u = np.zeros(k)
            u[s] = u_s
            grad = h @ u - c
            off = [i for i in range(k) if i not in support]
            if any(grad[i] - lam < -1e-8 for i in off):
                continue
            val = 0.5 * u @ h @ u - c @ u
            if val < best_val:
                best, best_val = u, val
    return best, best_val


def nnls_enum(a, b):
    """Exact NNLS by enumerating sign supports; returns the best KKT-feasible
    candidate (falls back to the best feasible by residual)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = a.shape[1]
    best, best_val = np.zeros(k), float(b @ b)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            s = list(support)
            sub = a[:, s]
            x_s, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if np.any(x_s < -1e-12):
                continue
            x = np.zeros(k)
            x[s] = x_s
            resid = a @ x - b
            val = float(resid @ resid)
            if val < best_val - 1e-15:
                best, best_val = x, val
    return best


def simplex_qp_kkt(h, c, u):
    """KKT violations of ``u`` for ``min 1/2 u'Hu - c'u`` on the simplex, as
    ``(primal, dual, complementarity)`` relative to ``max(1, |H|, |c|)``.

    The gradient is ``g = Hu - c``; on the support every ``g_i`` equals the
    same value, so the multipliers are ``lambda_i = g_i - sum_j u_j g_j``.
    """
    k = len(u)
    g = [sum(h[i][j] * u[j] for j in range(k)) - c[i] for i in range(k)]
    level = sum(u[i] * g[i] for i in range(k))
    lam = [g[i] - level for i in range(k)]
    scale = max([1.0] + [abs(v) for row in h for v in row] + [abs(v) for v in c])
    primal = max(max(-v for v in u), abs(sum(u) - 1.0))
    dual = max(0.0, max(-v for v in lam)) / scale
    comp = max(abs(u[i] * lam[i]) for i in range(k)) / scale
    return primal, dual, comp


def nnls_kkt(g, b, x):
    """KKT violations of ``x`` for ``min 1/2 x'Gx - b'x`` over ``x >= 0`` (the
    Gram form of NNLS), as ``(primal, dual, complementarity)`` relative to
    ``max(1, |G| max(1, |x|), |b|)``; the multipliers are ``Gx - b``."""
    k = len(x)
    lam = [sum(g[i][j] * x[j] for j in range(k)) - b[i] for i in range(k)]
    big_x = max([1.0] + [abs(v) for v in x])
    scale = max([1.0, big_x * max(abs(v) for row in g for v in row)] + [abs(v) for v in b])
    primal = max(0.0, max(-v for v in x))
    dual = max(0.0, max(-v for v in lam)) / scale
    comp = max(abs(x[i] * lam[i]) for i in range(k)) / (scale * big_x)
    return primal, dual, comp


def active_set_stacked(a, b, x0, simplex, tol, ridge_delta=1e-10, rounds_per_dim=10):
    """The batched active-set kernel with one stacked KKT matrix per pending
    row in every round, full-support rows included: the form the package's
    ``kernels._active_set`` had before full-support rows shared one
    factorization of the base system.  Kept verbatim (with its own ridge
    fallback, which warns ``RidgeFallbackWarning``) as the reference the split
    kernel must agree with."""
    import warnings

    from orkmc.errors import ConvergenceWarning, RidgeFallbackWarning

    def ridge_solve(m, rhs, k):
        ridged = m.copy()
        diag = np.arange(k)
        ridged[..., diag, diag] += ridge_delta
        x = np.linalg.solve(ridged, rhs)
        x += np.linalg.solve(ridged, rhs - m @ x)
        return x

    def solve_kkt(kkt, rhs, k):
        try:
            z = np.linalg.solve(kkt, rhs[..., None])[..., 0]
            bad = ~np.isfinite(z).all(axis=1)
        except np.linalg.LinAlgError:
            z = np.empty_like(rhs)
            bad = np.ones(rhs.shape[0], dtype=bool)
        if bad.any():
            warnings.warn("singular KKT system (reference kernel)", RidgeFallbackWarning)
            z[bad] = ridge_solve(kkt[bad], rhs[bad][..., None], k)[..., 0]
        return z

    n, k = b.shape
    x = np.array(x0, dtype=np.float64)
    free = x > 0
    d = k + 1 if simplex else k
    base = np.zeros((d, d))
    base[:k, :k] = a
    if simplex:
        base[:k, k] = base[k, :k] = 1.0
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    tol = max(tol, 1e3 * np.finfo(float).eps * scale)
    pending = np.ones(n, dtype=bool)
    for _ in range(rounds_per_dim * (k + 1)):
        rows = np.flatnonzero(pending)
        if rows.size == 0:
            break
        f = free[rows]
        fm = np.ones((rows.size, d))
        fm[:, :k] = f
        kkt = fm[:, :, None] * fm[:, None, :]
        kkt *= base
        kkt.reshape(rows.size, -1)[:, : k * (d + 1) : d + 1] += ~f
        rhs = fm.copy()
        rhs[:, :k] = np.where(f, b[rows], 0.0)
        z = solve_kkt(kkt, rhs, k)
        zx = np.where(f, z[:, :k], 0.0)

        block = f & (zx <= 0.0)
        step = block.any(axis=1)
        if step.any():
            xs, zs, bs = x[rows[step]], zx[step], block[step]
            gap = xs - zs
            ratio = np.full_like(xs, np.inf)
            np.divide(xs, gap, out=ratio, where=bs & (gap > 0))
            ratio[bs & (gap <= 0)] = 0.0
            alpha = ratio.min(axis=1, keepdims=True)
            xn = xs + alpha * (zs - xs)
            drop = (bs & (ratio <= alpha)) | (xn <= 0.0)
            xn[drop] = 0.0
            x[rows[step]] = xn
            free[rows[step]] = f[step] & ~drop

        opt = ~step
        if opt.any():
            ro, zo = rows[opt], zx[opt]
            lam = zo @ a - b[ro]
            if simplex:
                lam += z[opt, k:]
            lam[f[opt]] = np.inf
            j = lam.argmin(axis=1)
            add = lam[np.arange(ro.size), j] < -tol
            x[ro] = zo
            free[ro[add], j[add]] = True
            pending[ro[~add]] = False
    if pending.any():
        warnings.warn("reference active-set solve stopped short of KKT", ConvergenceWarning)
    if simplex:
        x /= x.sum(axis=1, keepdims=True)
    return x


def sq_sum_fsum(a):
    """Correctly rounded sum of the squared entries of ``a`` (each square
    rounded once, then summed exactly by ``math.fsum``)."""
    return math.fsum(float(v) * float(v) for v in np.asarray(a, dtype=float).ravel())


# ---------------------------------------------------------------------------
# metrics


def nmi_direct(pred, truth):
    """NMI by direct summation of p log(p / (p_row q_col))."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    joint: dict = {}
    pk: dict = {}
    qj: dict = {}
    for a, b in zip(pred, truth):
        joint[(a, b)] = joint.get((a, b), 0) + 1
        pk[a] = pk.get(a, 0) + 1
        qj[b] = qj.get(b, 0) + 1
    mutual = 0.0
    for (a, b), cnt in joint.items():
        p_ab = cnt / n
        mutual += p_ab * math.log(p_ab / ((pk[a] / n) * (qj[b] / n)))
    h_p = -sum((v / n) * math.log(v / n) for v in pk.values())
    h_q = -sum((v / n) * math.log(v / n) for v in qj.values())
    if h_p + h_q == 0.0:
        return 1.0
    return 2.0 * mutual / (h_p + h_q)


def purity_direct(pred, truth):
    clusters: dict = {}
    for a, b in zip(pred, truth):
        clusters.setdefault(a, []).append(b)
    hit = 0
    for members in clusters.values():
        hit += max(members.count(c) for c in set(members))
    return hit / len(list(pred))


def pair_scores_direct(pred, truth):
    """Pair counting by explicit enumeration of all sample pairs."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    tp = fp = fn = tn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            if same_p and same_t:
                tp += 1
            elif same_p:
                fp += 1
            elif same_t:
                fn += 1
            else:
                tn += 1
    total = n * (n - 1) // 2
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    if precision + recall == 0.0:
        fscore = 0.0
    else:
        fscore = 2 * precision * recall / (precision + recall)
    return {
        "precision": precision,
        "recall": recall,
        "fscore": fscore,
        "rand_index": (tp + tn) / total,
    }


# ---------------------------------------------------------------------------
# reference algorithms


def lloyd_reference(x, centers0, n_iter):
    """Plain Lloyd iterations from given centers.

    Per iteration: labels = nearest center (lowest index on ties), then each
    nonempty cluster's center moves to its mean.  Returns the per-iteration
    label history (length ``n_iter``).
    """
    centers = np.array(centers0, dtype=float, copy=True)
    history = []
    for _ in range(n_iter):
        d = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d, axis=1)
        history.append(labels.copy())
        for kk in range(centers.shape[0]):
            mask = labels == kk
            if mask.any():
                centers[kk] = x[mask].mean(axis=0)
    return history


def select_initial_rows_full_sort(x, k, seed, tag):
    """kmeans++ seeding as it stood before the sort shortcuts: the content
    order is ``np.lexsort(x.T)`` and each step's candidates are the prefix of
    a full stable ``argsort`` of the negated scores.  The draws are those of
    ``orkmc._util.rng_for(seed, tag)``, written out here."""
    n = x.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed] + list(tag.encode("utf-8"))))
    order = np.lexsort(x.T)
    keys = np.empty(n)
    taken = np.zeros(n, dtype=bool)
    keys[order] = rng.random(n)
    chosen = [int(np.argmax(keys))]
    taken[chosen[0]] = True
    d2 = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    n_candidates = 2 + int(math.ceil(math.log(max(k, 2))))
    for _ in range(1, k):
        keys[order] = rng.random(n)
        score = np.full(n, -np.inf)
        ok = (~taken) & (d2 > 0)
        score[ok] = np.log(keys[ok]) / d2[ok]
        if not np.any(np.isfinite(score)):
            score[~taken] = keys[~taken]
        cand = np.argsort(-score, kind="stable")[:n_candidates]
        best_i, best_pot, best_d2 = -1, np.inf, d2
        for i in cand:
            if score[i] == -np.inf and best_i >= 0:
                continue
            alt = np.minimum(d2, np.sum((x - x[i]) ** 2, axis=1))
            pot = float(alt[order].sum())
            if pot < best_pot:
                best_i, best_pot, best_d2 = int(i), pot, alt
        chosen.append(best_i)
        taken[best_i] = True
        d2 = best_d2
    return np.asarray(chosen, dtype=np.intp)


def sse_direct(x, centers, labels):
    total = 0.0
    for i in range(x.shape[0]):
        diff = x[i] - centers[labels[i]]
        total += float(diff @ diff)
    return total


def power_mean_direct(d_row, s):
    """Power mean of a row of distances by the direct formula."""
    k = len(d_row)
    if min(d_row) <= 0:
        return 0.0
    return (sum(v ** s for v in d_row) / k) ** (1.0 / s)
