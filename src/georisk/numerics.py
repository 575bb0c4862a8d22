"""Self-contained numerical kernels.

Smoothing kernels, Bessel J0, the standard normal CDF, an unblocked Cholesky
factorization with an escalating-jitter ridge policy, triangular solves, and
a Lawson-Hanson style non-negative least squares solver. Only numpy is used;
every routine is a pure function of its inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, FactorizationError

logger = logging.getLogger(__name__)

TRIWEIGHT_NORM = 35.0 / 32.0

# ---------------------------------------------------------------------------
# Smoothing kernels
# ---------------------------------------------------------------------------


def triweight_1d(u):
    """Univariate triweight kernel (35/32)(1 - u^2)^3 on |u| <= 1, else 0."""
    u = np.asarray(u, dtype=np.float64)
    w = np.clip(1.0 - u * u, 0.0, None)
    return TRIWEIGHT_NORM * w * w * w


def epanechnikov_1d(u):
    """Univariate Epanechnikov kernel (3/4)(1 - u^2) on |u| <= 1, else 0."""
    u = np.asarray(u, dtype=np.float64)
    return 0.75 * np.clip(1.0 - u * u, 0.0, None)


def triweight_kernel(u):
    """Multiplicative triweight kernel: product of univariate factors.

    ``u`` has the coordinates on its last axis; the result drops that axis.
    Zero outside the unit cube; each factor integrates to one.
    """
    return np.prod(triweight_1d(u), axis=-1)


def epanechnikov_kernel(u):
    """Multiplicative Epanechnikov kernel (product over coordinates)."""
    return np.prod(epanechnikov_1d(u), axis=-1)


PRODUCT_KERNELS = {
    "triweight": triweight_1d,
    "epanechnikov": epanechnikov_1d,
}


# ---------------------------------------------------------------------------
# Bessel function of the first kind, order zero
# ---------------------------------------------------------------------------

_J0_SERIES_CUTOFF = 12.0
# Below the cutoff the ascending series loses at most ~3 digits to
# cancellation (max term ~4e3 at x = 12). Beyond it the Hankel asymptotic
# expansion, truncated at its smallest term, stays below 1e-11 absolute.
# The classical cutoff of 8 is too low for a 1e-10 budget: the asymptotic
# tail bottoms out near 2e-8 there.

_J0_MAX_ASYMPTOTIC_TERMS = 40


def _j0_series(x):
    # each element adds terms up to its own first one below 1e-18 (later
    # terms are zeroed), so a value does not depend on the other arguments
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    mag = np.empty_like(x)
    for k in range(1, 60):
        term *= -q
        term /= k * k
        total += term
        np.abs(term, out=mag)
        if mag.max() < 1e-18:
            break
        np.multiply(term, mag >= 1e-18, out=term)
    return total


def _j0_asymptotic(x):
    # J0(x) ~ sqrt(2/(pi x)) [P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)]
    # with P, Q the Hankel series; terms are added until they stop
    # decreasing (optimal truncation), per element.
    p = np.ones_like(x)
    q = np.zeros_like(x)
    u = np.ones_like(x)
    active = np.ones_like(x, dtype=bool)
    for m in range(_J0_MAX_ASYMPTOTIC_TERMS):
        mm = m + 1
        u_next = u * (2 * m + 1) ** 2 / (8.0 * mm * x)
        active &= np.abs(u_next) < np.abs(u)
        if not active.any():
            break
        contrib = np.where(active, u_next, 0.0)
        if mm % 2 == 0:
            sign = -1.0 if (mm // 2) % 2 else 1.0
            p += sign * contrib
        else:
            sign = -1.0 if ((mm + 1) // 2) % 2 else 1.0
            q += sign * contrib
        u = np.where(active, u_next, u)
    chi = x - 0.25 * np.pi
    amp = np.sqrt(2.0 / (np.pi * x))
    return amp * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j0(x):
    """J0 evaluated to better than 1e-10 absolute error.

    Ascending power series for x <= 12, Hankel asymptotic expansion beyond,
    truncated at its smallest term. Negative arguments use evenness.
    """
    x_arr = np.abs(np.asarray(x, dtype=np.float64))
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    out = np.empty_like(x_arr)
    small = x_arr <= _J0_SERIES_CUTOFF
    if small.any():
        out[small] = _j0_series(x_arr[small])
    if (~small).any():
        out[~small] = _j0_asymptotic(x_arr[~small])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Standard normal CDF
# ---------------------------------------------------------------------------

_ERF_SERIES_CUTOFF = 3.0
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _erf_series(a):
    # erf(a) = 2/sqrt(pi) * sum (-1)^k a^(2k+1) / (k! (2k+1)), |a| <= 3
    a = np.asarray(a, dtype=np.float64)
    a2 = a * a
    term = a.copy()
    total = a.copy()
    for k in range(1, 80):
        term = term * (-a2) / k
        total += term / (2 * k + 1)
        if np.max(np.abs(term)) < 1e-20:
            break
    return _TWO_OVER_SQRT_PI * total


def _erfc_cf(a):
    # Laplace continued fraction, evaluated bottom-up:
    # erfc(a) = exp(-a^2)/sqrt(pi) / (a + (1/2)/(a + (2/2)/(a + (3/2)/(a + ...))))
    a = np.asarray(a, dtype=np.float64)
    depth = 150
    f = np.zeros_like(a)
    for k in range(depth, 0, -1):
        f = (0.5 * k) / (a + f)
    return np.exp(-a * a) / math.sqrt(math.pi) / (a + f)


def normal_cdf(z):
    """Phi(z) with absolute error below 1e-12.

    Series-based erf for |z| <= 3*sqrt(2), a continued-fraction erfc tail
    beyond. Both branches are assembled so that Phi(z) + Phi(-z) = 1 to
    machine precision.
    """
    z_arr = np.asarray(z, dtype=np.float64)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    a = np.abs(z_arr) / math.sqrt(2.0)
    upper_half = np.empty_like(a)  # Phi(|z|)
    small = a <= _ERF_SERIES_CUTOFF
    if small.any():
        upper_half[small] = 0.5 + 0.5 * _erf_series(a[small])
    if (~small).any():
        upper_half[~small] = 1.0 - 0.5 * _erfc_cf(a[~small])
    out = np.where(z_arr >= 0.0, upper_half, 1.0 - upper_half)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Cholesky factorization and triangular solves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T equal to the (possibly ridged)
    input; ``ridge`` is the diagonal jitter that was added (0 when none)."""

    L: np.ndarray
    ridge: float = 0.0

    @property
    def n(self) -> int:
        return self.L.shape[0]


def _chol_lower(a: np.ndarray):
    """Unblocked lower Cholesky. Returns (L, failing_pivot_or_None)."""
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        s = a[j, j] - L[j, :j] @ L[j, :j]
        if not (s > 0.0) or not np.isfinite(s):
            return L, j
        ljj = math.sqrt(s)
        L[j, j] = ljj
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / ljj
    return L, None


_RIDGE_DELTAS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def cholesky(a, ridge_policy: str = "auto") -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix as L L^T.

    ridge_policy "auto" retries a failed factorization with escalating
    diagonal jitter delta * mean(diag(A)), delta in 1e-10..1e-6 (factor 10
    per retry); the applied jitter is logged and surfaced on the factor.
    "none" fails immediately, naming the failing pivot.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10 relative tolerance")
    a = 0.5 * (a + a.T)
    mean_diag = float(np.mean(np.diag(a)))
    base = mean_diag if mean_diag > 0.0 else 1.0

    L, pivot = _chol_lower(a)
    if pivot is None:
        return CholeskyFactor(L=L, ridge=0.0)
    if ridge_policy == "none":
        raise FactorizationError(
            f"matrix is not positive definite (pivot {pivot} failed)", pivot=pivot
        )
    if ridge_policy != "auto":
        raise ValueError(f"unknown ridge_policy {ridge_policy!r}")
    for delta in _RIDGE_DELTAS:
        ridge = delta * base
        L, pivot = _chol_lower(a + ridge * np.eye(n))
        if pivot is None:
            logger.info("cholesky applied ridge %.3e (delta=%.0e)", ridge, delta)
            return CholeskyFactor(L=L, ridge=ridge)
    raise FactorizationError(
        f"matrix is not positive definite even with ridge {_RIDGE_DELTAS[-1] * base:.3e} "
        f"(pivot {pivot} failed)",
        pivot=pivot,
    )


def _as_lower(factor) -> np.ndarray:
    return factor.L if isinstance(factor, CholeskyFactor) else np.asarray(factor, dtype=np.float64)


def solve_lower(factor, b) -> np.ndarray:
    """Forward substitution: solve L x = b for lower-triangular L.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    L = _as_lower(factor)
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    x = b.reshape(b.shape[0], -1).copy()
    n = L.shape[0]
    for i in range(n):
        if i:
            x[i] -= L[i, :i] @ x[:i]
        x[i] /= L[i, i]
    return x.ravel() if vector else x


def solve_lower_t(factor, b) -> np.ndarray:
    """Back substitution: solve L^T x = b for lower-triangular L."""
    L = _as_lower(factor)
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    x = b.reshape(b.shape[0], -1).copy()
    n = L.shape[0]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= L[i + 1 :, i] @ x[i + 1 :]
        x[i] /= L[i, i]
    return x.ravel() if vector else x


def solve_spd(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve (L L^T) x = b via two triangular solves."""
    return solve_lower_t(factor, solve_lower(factor, b))


# ---------------------------------------------------------------------------
# Non-negative least squares (Lawson-Hanson active set)
# ---------------------------------------------------------------------------


def nnls(a, b, weights=None, *, max_iter=None, tol=1e-8) -> np.ndarray:
    """Minimize ||W^(1/2) (A x - b)||^2 subject to x >= 0.

    Active-set method. At the solution the (scaled) KKT conditions hold:
    the gradient is >= -tol on active coordinates and within tol of zero on
    free ones. Raises ConvergenceError with the final residual if the
    iteration cap (default 10 k) is exceeded first.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).ravel()
    m, k = a.shape
    if b.shape[0] != m:
        raise ValueError("A and b have incompatible shapes")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.shape[0] != m or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive, finite and length m")
        sw = np.sqrt(w)
        a = a * sw[:, None]
        b = b * sw
    if max_iter is None:
        max_iter = 10 * k

    scale = max(1.0, float(np.abs(a.T @ b).max()))
    gtol = tol * scale
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    iters = 0

    while True:
        resid = b - a @ x
        grad = a.T @ resid
        candidates = ~passive & (grad > gtol)
        if not candidates.any():
            break
        j = int(np.argmax(np.where(candidates, grad, -np.inf)))
        passive[j] = True

        while True:
            iters += 1
            if iters > max_iter:
                raise ConvergenceError(
                    f"nnls failed to satisfy KKT within {max_iter} iterations",
                    residual=float(np.linalg.norm(b - a @ x)),
                )
            z = np.zeros(k)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                x = z
                break
            # step toward z until the first passive coordinate hits zero
            mask = passive & (z <= 0.0) & (x > z)
            ratios = x[mask] / (x[mask] - z[mask])
            alpha = float(ratios.min())
            x = x + alpha * (z - x)
            drop = passive & (x <= 1e-14 * max(1.0, np.abs(x).max())) & (z <= 0.0)
            x[drop] = 0.0
            passive[drop] = False

    grad = a.T @ (b - a @ x)
    free_bad = passive & (np.abs(grad) > gtol)
    active_bad = ~passive & (grad > gtol)
    if free_bad.any() or active_bad.any():
        raise ConvergenceError(
            "nnls terminated without satisfying the KKT conditions",
            residual=float(np.linalg.norm(b - a @ x)),
        )
    return x
