"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (series,
quadrature, brute-force linear algebra) and kept separate from the package
code paths it checks.
"""

from decimal import Decimal, getcontext

import numpy as np


def j0_series_decimal(x, digits=90):
    """Bessel J0 by the ascending series in high-precision decimal arithmetic.

    Usable for any x reachable in the tests (cancellation is absorbed by the
    working precision).
    """
    getcontext().prec = digits
    xd = Decimal(repr(float(x)))
    q = xd * xd / 4
    term = Decimal(1)
    total = Decimal(1)
    k = 0
    while True:
        k += 1
        term = -term * q / (k * k)
        total += term
        if abs(term) < Decimal(10) ** (-digits + 10) and k > float(x):
            break
        if k > 5000:  # pragma: no cover - safety stop
            raise RuntimeError("series did not terminate")
    return float(total)


def erf_series_decimal(x, digits=60):
    """erf(x) from its Maclaurin series in decimal arithmetic."""
    getcontext().prec = digits
    xd = Decimal(repr(float(x)))
    x2 = xd * xd
    term = xd
    total = xd
    k = 0
    while True:
        k += 1
        term = -term * x2 / k
        total += term / (2 * k + 1)
        if abs(term) < Decimal(10) ** (-digits + 10) and k > float(x) ** 2:
            break
        if k > 5000:  # pragma: no cover
            raise RuntimeError("series did not terminate")
    two_over_sqrt_pi = Decimal(2) / Decimal(repr(np.pi)).sqrt()
    return float(two_over_sqrt_pi * total)


def normal_cdf_oracle(z):
    """Phi(z) for |z| <= ~7 via the decimal erf series."""
    a = abs(z) / np.sqrt(2.0)
    phi_abs = 0.5 + 0.5 * erf_series_decimal(a)
    return phi_abs if z >= 0 else 1.0 - phi_abs


def erfc_asymptotic(x, terms=12):
    """Tail oracle: the divergent asymptotic expansion of erfc, truncated.

    Accurate to far below the tail magnitude for x >= 5.
    """
    inv2x2 = 1.0 / (2.0 * x * x)
    s = 1.0
    term = 1.0
    for k in range(1, terms):
        term *= -(2 * k - 1) * inv2x2
        s += term
    return np.exp(-x * x) / (x * np.sqrt(np.pi)) * s


def trapezoid_2d(f, lo, hi, nodes):
    """2-D trapezoid quadrature of f over [lo, hi]^2 on a nodes x nodes grid."""
    xs = np.linspace(lo, hi, nodes)
    w = np.full(nodes, (hi - lo) / (nodes - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    vals = f(np.stack([xx, yy], axis=-1))
    return float(np.einsum("i,j,ij->", w, w, vals))


def wls_affine_hat_row(locations, x0, weights):
    """Brute-force weighted least squares hat vector at x0 for an affine fit.

    Solves the normal equations densely with numpy.linalg and returns the row
    mapping observations to the fitted intercept at x0.
    """
    locs = np.asarray(locations, dtype=np.float64)
    design = np.column_stack([np.ones(len(locs)), locs - np.asarray(x0)])
    w = np.asarray(weights, dtype=np.float64)
    a = design.T @ (design * w[:, None])
    rhs = design.T * w[None, :]
    coef_rows = np.linalg.solve(a, rhs)
    return coef_rows[0]


def bias_matrix_tripleloop(s, sigma):
    """Naive O(n^3) evaluation of S Sigma S^T - Sigma S^T - S Sigma."""
    s = np.asarray(s, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    n = s.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc -= sigma[i, k] * s[j, k] + s[i, k] * sigma[k, j]
                for l in range(n):
                    acc += s[i, k] * sigma[k, l] * s[j, l]
            out[i, j] = acc
    return out


def local_lag_fit_naive(target, pair_dists, pair_z, bandwidth, exclude=None):
    """Local linear fit of z on distance at a single lag, direct O(pairs).

    Returns the fitted intercept (None when no pair carries weight), using
    the triweight kernel. ``exclude`` drops one pair index.
    """
    d = np.asarray(pair_dists, dtype=np.float64)
    z = np.asarray(pair_z, dtype=np.float64)
    keep = np.ones(len(d), dtype=bool)
    if exclude is not None:
        keep[exclude] = False
    u = (d[keep] - target) / bandwidth
    w = np.clip(1.0 - u * u, 0.0, None) ** 3
    if not np.any(w > 0):
        return None
    t = d[keep] - target
    s0 = np.sum(w)
    s1 = np.sum(w * t)
    s2 = np.sum(w * t * t)
    t0 = np.sum(w * z[keep])
    t1 = np.sum(w * t * z[keep])
    den = s0 * s2 - s1 * s1
    if den <= 1e-10 * max(s0 * s2, 1e-300):
        return t0 / s0
    return (s2 * t0 - s1 * t1) / den


def sk_weights_dense(cov_dd, cov_d0):
    """Simple kriging weights via an explicit dense inverse."""
    return np.linalg.inv(cov_dd) @ cov_d0


def bootstrap_replicates_stepwise(fitted, smoother, target_rows, c0, factor_l, e, idx):
    """Bootstrap replicate values built step by step, one block of index rows.

    Recorrelates the resampled residuals with ``factor_l``, rebuilds the
    responses around the fitted trend, re-smooths them, solves the kriging
    system L L^T alpha = residuals by forward then back substitution, and
    adds the kriged residuals to the re-smoothed trend at the targets.
    """
    L = np.asarray(factor_l, dtype=np.float64)
    y_star = fitted[None, :] + e[idx] @ L.T
    resid_star = (y_star - y_star @ smoother.T).T  # (n, b)
    n = L.shape[0]
    z = resid_star.copy()
    for i in range(n):
        z[i] = (z[i] - L[i, :i] @ z[:i]) / L[i, i]
    alpha = z
    for i in range(n - 1, -1, -1):
        alpha[i] = (alpha[i] - L[i + 1 :, i] @ alpha[i + 1 :]) / L[i, i]
    return y_star @ target_rows.T + alpha.T @ c0.T
