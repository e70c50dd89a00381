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
