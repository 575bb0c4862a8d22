"""Self-contained numerical kernels.

The univariate triweight kernel, Bessel J0, the standard normal CDF, a
Cholesky factorization (numpy's LAPACK) with escalating diagonal jitter,
blocked triangular solves that apply the inverses of the factor's diagonal
blocks, and a Lawson-Hanson style non-negative least squares solver. Only
numpy is used; every routine is a pure function of its inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConvergenceError, FactorizationError

logger = logging.getLogger(__name__)

TRIWEIGHT_NORM = 35.0 / 32.0

# ---------------------------------------------------------------------------
# Smoothing kernel
# ---------------------------------------------------------------------------


def _triweight_1d(u):
    """Univariate triweight kernel (35/32)(1 - u^2)^3 on |u| <= 1, else 0.

    The trend's product kernel multiplies one factor per axis. The name is
    private so that the benchmark tracer, which wraps every public function,
    does not time each of its many calls.
    """
    u = np.asarray(u, dtype=np.float64)
    w = 1.0 - u * u
    np.maximum(w, 0.0, out=w)
    # in place, so that a call holds at most three arrays of u's size
    out = TRIWEIGHT_NORM * w
    out *= w
    out *= w
    return out


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


_SOLVE_BLOCK = 64


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T equal to the (possibly ridged)
    input; ``ridge`` is the diagonal jitter that was added (0 when none)."""

    L: np.ndarray
    ridge: float = 0.0

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @cached_property
    def block_inverses(self) -> list:
        """The inverses of L's diagonal blocks of ``_SOLVE_BLOCK`` rows, which
        the triangular solves apply by a matrix product. Formed on the first
        solve and kept with the factor, so later solves, one-column ones
        included, do not form them again."""
        L = np.asarray(self.L, dtype=np.float64)
        return [np.linalg.inv(L[blk, blk]) for blk in _solve_blocks(len(L))]


def _lapack_factor(a: np.ndarray):
    """LAPACK's lower Cholesky factor of ``a``, or None when it fails. LAPACK
    need not stop at a NaN or an infinity (OpenBLAS returns a non-finite L
    without an error), so only a finite factor counts."""
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return L if np.isfinite(L).all() else None


def _failing_pivot(a: np.ndarray) -> int:
    """First pivot at which ``a`` fails to factor: the size of its smallest
    leading block that fails, minus one, found by bisection."""
    ok, bad = 0, a.shape[0]  # leading ok x ok block factors, bad x bad fails
    while bad - ok > 1:
        mid = (ok + bad) // 2
        ok, bad = (ok, mid) if _lapack_factor(a[:mid, :mid]) is None else (mid, bad)
    return bad - 1


_RIDGE_DELTAS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def cholesky(a) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix as L L^T.

    A failed factorization is retried with escalating diagonal jitter
    delta * mean(diag(A)), delta in 1e-10..1e-6 (factor 10 per retry); the
    applied jitter is logged and surfaced on the factor. When every retry
    fails, FactorizationError names the failing pivot of the last one. A
    matrix with a NaN or infinite entry is rejected before any attempt, with
    the first row holding one as its pivot.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    finite_rows = np.isfinite(a).all(axis=1)
    if not finite_rows.all():
        pivot = int(np.argmin(finite_rows))
        raise FactorizationError(f"matrix has a non-finite entry in row {pivot}", pivot=pivot)
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10 relative tolerance")
    a = 0.5 * (a + a.T)
    mean_diag = float(np.mean(np.diag(a)))
    base = mean_diag if mean_diag > 0.0 else 1.0

    L = _lapack_factor(a)
    if L is not None:
        return CholeskyFactor(L=L, ridge=0.0)
    for delta in _RIDGE_DELTAS:
        ridge = delta * base
        ridged = a + ridge * np.eye(n)
        L = _lapack_factor(ridged)
        if L is not None:
            logger.info("cholesky applied ridge %.3e (delta=%.0e)", ridge, delta)
            return CholeskyFactor(L=L, ridge=ridge)
    pivot = _failing_pivot(ridged)
    raise FactorizationError(
        f"matrix is not positive definite even with ridge {ridge:.3e} (pivot {pivot} failed)",
        pivot=pivot,
    )


def _solve_blocks(n):
    return [slice(lo, lo + _SOLVE_BLOCK) for lo in range(0, n, _SOLVE_BLOCK)]


def _blocked(factor, b, copy=True):
    """(``factor`` as a CholeskyFactor, ``b`` as a 2-D float array, the row
    blocks of _SOLVE_BLOCK rows). A bare lower-triangular array is wrapped,
    so its block inverses are formed for this call only. Without ``copy``
    the array is a view of ``b``, which must then be a C-contiguous float
    array."""
    if not isinstance(factor, CholeskyFactor):
        factor = CholeskyFactor(np.asarray(factor, dtype=np.float64))
    x = (np.array(b, dtype=np.float64) if copy else b).reshape(factor.n, -1)
    return factor, x, _solve_blocks(factor.n)


def solve_lower(factor, b) -> np.ndarray:
    """Forward substitution: solve L x = b for lower-triangular L.

    ``b`` may be a vector or a matrix of stacked right-hand sides. Each row
    block takes the update from the rows above it, then applies the inverse
    of its diagonal block (``CholeskyFactor.block_inverses``).
    """
    factor, x, blocks = _blocked(factor, b)
    _forward_substitute(factor, x, blocks)
    return x.reshape(np.shape(b))


def _forward_substitute(factor, x, blocks):
    L = factor.L
    for blk, inverse in zip(blocks, factor.block_inverses):
        x[blk] -= L[blk, : blk.start] @ x[: blk.start]
        x[blk] = inverse @ x[blk]


def _back_substitute(factor, x, blocks):
    L = factor.L
    for blk, inverse in zip(reversed(blocks), reversed(factor.block_inverses)):
        x[blk] -= L[blk.stop :, blk].T @ x[blk.stop :]
        x[blk] = inverse.T @ x[blk]


def solve_lower_t(factor, b) -> np.ndarray:
    """Back substitution: solve L^T x = b for lower-triangular L, by row
    blocks from the bottom as in solve_lower, each applying the transposed
    inverse of its diagonal block."""
    factor, x, blocks = _blocked(factor, b)
    _back_substitute(factor, x, blocks)
    return x.reshape(np.shape(b))


def solve_spd(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve (L L^T) x = b via two triangular solves; the back substitution
    runs in place on the forward substitution's fresh result."""
    y = solve_lower(factor, b)
    _back_substitute(*_blocked(factor, y, copy=False))
    return y


def _solve_spd_in_place(factor: CholeskyFactor, b: np.ndarray) -> None:
    """``solve_spd`` that overwrites ``b``, a C-contiguous float array of
    right-hand sides, with the solution, by the same two blocked triangular
    solves, so a caller that owns an n x n right-hand side holds no copy."""
    factor, x, blocks = _blocked(factor, b, copy=False)
    _forward_substitute(factor, x, blocks)
    _back_substitute(factor, x, blocks)


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
