"""Exact Gaussian process regression and model-selection scalars.

Implements kernel-matrix assembly, Cholesky-based fitting and prediction,
the log marginal likelihood, the stabilized surrogate objective log(L + 1),
and the BIC / beta selection scores used by the kernel searches.

A fit factors the N x N kernel matrix, or, for a kernel with r < N
features and a positive noise level, the r x r matrix of the weight-space
view (Rasmussen & Williams 2006, sec. 2.1); both give the same logL and
weight vector up to round-off.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

__all__ = [
    "ParamVector",
    "KernelFn",
    "TrainedGP",
    "TraceRow",
    "SearchTrace",
    "KernelEvaluationError",
    "NotPositiveDefiniteError",
    "build_kernel_matrix",
    "fit",
    "predict",
    "log_marginal_likelihood",
    "surrogate_objective",
    "bic",
    "beta",
    "rmse",
]

DEFAULT_JITTER = 1e-10
JITTER_CAP = 1e-4
# above this many rows, Grams without a feature map are built by row blocks;
# 128 timed fastest or even against whole Grams for fits at N = 100 to 2000
_GRAM_BLOCK = 128
# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_grams_on_the_heap():
    """Have glibc serve blocks under 32 MiB from its heap, and keep 64 MiB
    of freed heap before it trims.

    glibc maps a block of at least its mmap threshold afresh, so its pages
    fault in one by one and go back to the system when it is freed. The
    threshold starts at 128 KiB and rises only to the largest mapped block
    freed so far, so a fit's Gram, its largest block, stays at or above it:
    each 200-point fit faulted in its 320 KB Gram anew, 78 pages, unless
    some earlier free had lifted the threshold. Elsewhere than glibc this
    does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_grams_on_the_heap()


class KernelEvaluationError(RuntimeError):
    """A kernel returned a non-finite value."""


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky factorization failed at the jitter cap."""


@dataclass(frozen=True)
class ParamVector:
    """Bounded hyperparameter vector.

    Each entry carries a bound pair and a scale tag ("linear" or "log")
    used by the optimizer to build its search space.
    """

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scales: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        n = self.values.size
        if not (self.lower.size == self.upper.size == len(self.scales) == n):
            raise ValueError("inconsistent ParamVector field lengths")

    @property
    def size(self):
        return self.values.size

    def with_values(self, values):
        values = np.asarray(values, dtype=float)
        if values.size != self.size:
            raise ValueError(
                f"expected {self.size} parameter values, got {values.size}")
        return replace(self, values=values)


class KernelFn:
    """Abstract covariance function over pairs of D-dimensional inputs.

    Subclasses implement ``gram``, the matrix of k(x, x') over the rows of
    two input sets, as a fresh float array no one else holds: ``fit``
    overwrites it, reading only the upper triangle, diagonal included.

    Above ``_GRAM_BLOCK`` training rows, ``build_kernel_matrix`` calls
    ``gram`` on row blocks ``(X[i0:i1], X[i0:])`` of the upper triangle, so
    each entry must depend only on its own two rows. Elementwise work meets
    that bit for bit; an inner product ``X @ X2.T`` only to round-off, as a
    BLAS product's last bits may depend on the shape of the call. (With
    OpenBLAS 0.3.31 on an AVX-512 Xeon, block-built and whole Grams of
    3-column inputs agreed in every entry at N = 200 and 2000; at N = 300,
    152 entries of a DOT Gram and 60 of a depth-2 NNGP Gram differed, by at
    most one ulp of the largest entry.)

    A kernel that is an inner product of r real features may also report
    ``n_features = r`` and implement ``features(X, params)``, the (B, r)
    matrix Phi with ``gram(X, X2) = Phi(X) @ Phi(X2).T``. ``fit`` then works
    in weight space whenever r < N and the noise level is positive. Such a
    kernel's N x N Gram is assembled whole.
    """

    n_features = None  # no finite feature map

    def gram(self, X, X2, params: ParamVector) -> np.ndarray:
        raise NotImplementedError

    def objective(self, logL: float) -> float:
        """The value a type-II fit of this kernel maximizes: logL itself."""
        return logL


@dataclass(frozen=True)
class TrainedGP:
    """Weight vector and log marginal likelihood of a fitted GP, both from
    one Cholesky factor: of the training-set kernel matrix, or of the
    r x r weight-space matrix when ``fit`` works in weight space. The
    factor overwrote that matrix and is not kept.
    ``alpha`` is (K + (sigma_n^2 + jitter) I)^-1 y either way.

    Immutable after fit; concurrent predict calls are safe.
    """

    X: np.ndarray
    alpha: np.ndarray
    kernel: KernelFn
    params: ParamVector
    jitter: float
    logL: float


@dataclass(frozen=True)
class TraceRow:
    """One step of a structure search: the best candidate after it.

    ``score`` and ``criterion`` mean what they mean in a result row;
    ``criterion`` is what the search ranks by (BIC, logL or beta).
    """

    iteration: int
    n_candidates: int
    winner: str
    score: float
    criterion: float
    M: int
    wall_time: float


@dataclass
class SearchTrace:
    """The rows of one structure search, in iteration order."""

    rows: list = field(default_factory=list)

    def append(self, row: TraceRow):
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@functools.lru_cache(maxsize=8)
def _strict_lower(n):
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _row_blocks(n):
    """(i0, i1) of each ``_GRAM_BLOCK``-row block of an n-row matrix."""
    for i0 in range(0, n, _GRAM_BLOCK):
        yield i0, min(i0 + _GRAM_BLOCK, n)


def _mirror(A, i0, i1):
    """Copy rows i0:i1 of square A's upper triangle onto its lower one by
    transposes: the diagonal square's strict upper part, then the rows'
    part right of it into the columns below the square."""
    D = A[i0:i1, i0:i1]
    np.copyto(D, D.T, where=_strict_lower(i1 - i0))
    A[i1:, i0:i1] = A[i0:i1, i1:].T


def _input_rows(X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one input row")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input rows")
    return X


def build_kernel_matrix(kernel: KernelFn, params: ParamVector, X) -> np.ndarray:
    """Assemble the N x N kernel matrix, C-contiguous; only its upper
    triangle, diagonal included, is defined, and only that is checked.

    Above ``_GRAM_BLOCK`` rows, a kernel without a feature map is evaluated
    on row blocks of the upper triangle only, ``gram(X[i0:i1], X[i0:])``
    (see ``KernelFn``), and the strict lower triangle is left unwritten;
    any other kernel returns the whole Gram in one call, its own values
    below the diagonal too. Each block forms its own inner products, so a
    Gram built on them may differ from the upper triangle of one whole
    ``gram(X, X)`` at round-off. A non-finite entry there raises
    ``KernelEvaluationError`` naming the first offending pair, row by row.
    """
    X = _input_rows(X)
    n = X.shape[0]
    whole = n <= _GRAM_BLOCK or kernel.n_features is not None
    if whole:
        K = np.ascontiguousarray(kernel.gram(X, X, params), dtype=float)
    else:
        K = np.empty((n, n))
    for i0, i1 in _row_blocks(n):
        if not whole:
            K[i0:i1, i0:] = kernel.gram(X[i0:i1], X[i0:], params)
        ok = np.isfinite(K[i0:i1, i0:])
        ok[:, :i1 - i0] |= _strict_lower(i1 - i0)  # below the diagonal
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise KernelEvaluationError(f"kernel returned non-finite value "
                                        f"at pair ({i0 + i}, {i0 + j})")
    return K


def _cholesky_with_jitter(A, jitter, rebuild=None):
    """Cholesky of A + j*I, escalating j by 10x up to JITTER_CAP on failure.

    A is a C-contiguous float64 array, of which only the upper triangle is
    read. It is factored in its own memory by scipy's LAPACK ``dpotrf('L')``
    of the column-major view ``A.T``, and the returned A holds the factor
    ``scipy.linalg.cholesky(A, lower=True)`` gives, bit for bit, as the
    lower triangle of ``A.T``.

    Each attempt sets A's diagonal to d + j, d being the diagonal on entry,
    so jitters never accumulate. After a failed first attempt, A makes way
    for a fresh ``rebuild()``, or stays if ``rebuild`` is None (an exactly
    symmetric A); its upper triangle is mirrored below and, before each
    later attempt, restored from there. Past the cap A is left as is.
    """
    n = A.shape[0]
    d = A.diagonal().copy()
    j = jitter
    while True:
        A.flat[::n + 1] = d + j
        # LAPACK works in A's memory (A.T is F-contiguous), clean=0 spares
        # the strict lower triangle, and the view it returns is not kept
        info = dpotrf(A.T, lower=1, clean=0, overwrite_a=1)[1]
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        if info == 0:
            return A, j
        j = j * 10.0 if j else DEFAULT_JITTER
        if j > JITTER_CAP:
            raise NotPositiveDefiniteError(
                f"factorization failed at jitter cap {JITTER_CAP:g}: "
                f"leading minor {info} of {n} is not positive definite")
        fresh = rebuild is not None
        if fresh:
            A = None  # the failed attempt goes before its successor is built
            A, rebuild = rebuild(), None
        for i0, i1 in _row_blocks(n):  # mirror a fresh A, else restore it
            _mirror(A if fresh else A.T, i0, i1)


def _trtrs(T, b, lower, trans):
    x, info = dtrtrs(T, b, lower=lower, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x


def _solve_lower(L, b):
    """Solve L x = b for a C-contiguous lower-triangular L.

    This is the LAPACK call ``scipy.linalg.solve_triangular(L, b,
    lower=True, check_finite=False)`` makes, without its wrapper's overhead.
    """
    return _trtrs(L.T, b, lower=0, trans=1)


def _solve_lower_t(L, b):
    """Solve L^T x = b for a C-contiguous lower-triangular L, as
    ``scipy.linalg.solve_triangular(L.T, b, lower=False,
    check_finite=False)`` does."""
    return _trtrs(L.T, b, lower=0, trans=0)


def fit(kernel: KernelFn, params: ParamVector, X, y,
        sigma_n: float = 0.0, jitter: float = DEFAULT_JITTER) -> TrainedGP:
    """Fit an exact GP: factorize K + sigma_n^2 I (+ jitter I), solve for alpha.

    The log marginal likelihood -1/2 y^T A^-1 y - 1/2 log|A| - N/2 log 2pi
    comes from the same factor (Rasmussen & Williams 2006, Alg. 2.1). The
    Gram is assembled once, its diagonal shifted in place, and factored in
    its own memory by scipy's LAPACK ``dpotrf`` (``_cholesky_with_jitter``).

    A kernel with ``n_features`` r < N is fitted in weight space for any
    sigma_n > 0 (see ``_fit_weight_space``); its features are only built
    then. Only sigma_n = 0, a bare-jitter noise, keeps the N x N path. Near
    sigma_n^2 ~ jitter the weight-space solve is ill-conditioned: at
    sigma_n = 1e-6 a one-ulp jitter change moves a 64-feature RMSE 1.5e-5.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.size != X.shape[0]:
        raise ValueError(f"y length {y.size} does not match N={X.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite targets")
    if sigma_n < 0 or jitter < 0:
        raise ValueError("sigma_n and jitter must be non-negative")
    if sigma_n > 0 and kernel.n_features is not None \
            and kernel.n_features < y.size:
        alpha, logL, used_jitter = _fit_weight_space(
            kernel, params, _input_rows(X), y, sigma_n, jitter)
    else:
        def gram():  # built again only after a failed first attempt
            A = build_kernel_matrix(kernel, params, X)
            A.flat[::A.shape[0] + 1] += sigma_n ** 2
            return A

        A, used_jitter = _cholesky_with_jitter(gram(), jitter, gram)
        L = A.T  # F-ordered, the factor in its lower triangle
        alpha = _trtrs(L, _trtrs(L, y, lower=1, trans=0), lower=1, trans=1)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        logL = float(-0.5 * y @ alpha - 0.5 * logdet
                     - 0.5 * y.size * math.log(2.0 * math.pi))
    return TrainedGP(X=X, alpha=alpha, kernel=kernel, params=params,
                     jitter=used_jitter, logL=logL)


def _fit_weight_space(kernel, params, X, y, sigma_n, jitter):
    """(alpha, logL, jitter) of ``fit`` from the r x r factor of
    C = Phi^T Phi + s^2 I, with K = Phi Phi^T and s^2 = sigma_n^2 + jitter.

    By Woodbury and Sylvester, with b = L_C^-1 Phi^T y:
    y^T A^-1 y = (y^T y - b^T b) / s^2, log|A| = log|C| + (N - r) log s^2,
    and alpha = (y - Phi L_C^-T b) / s^2. The jitter ladder runs on C.

    That alpha loses digits where Phi L_C^-T b is close to y, and
    predictions sum it against the Gram; one step of iterative refinement
    brings them back to the N x N path's round-off.
    """
    Phi = np.asarray(kernel.features(X, params), dtype=float)
    if not np.all(np.isfinite(Phi)):
        i, j = np.argwhere(~np.isfinite(Phi))[0]
        raise KernelEvaluationError(
            f"kernel returned non-finite feature {j} at row {i}")
    n, r = Phi.shape
    C = Phi.T @ Phi  # exactly symmetric, so the ladder needs no rebuild
    C.flat[::r + 1] += sigma_n ** 2
    C, used_jitter = _cholesky_with_jitter(C, jitter)
    L = C.T  # F-ordered, the factor in its lower triangle
    s2 = sigma_n ** 2 + used_jitter

    def solve(v, b):  # A^-1 v, b being L_C^-1 Phi^T v
        return (v - Phi @ _trtrs(L, b, lower=1, trans=1)) / s2

    b = _trtrs(L, Phi.T @ y, lower=1, trans=0)
    alpha = solve(y, b)
    resid = y - Phi @ (Phi.T @ alpha) - s2 * alpha
    alpha += solve(resid, _trtrs(L, Phi.T @ resid, lower=1, trans=0))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L)))) + (n - r) * math.log(s2)
    logL = float(-0.5 * (y @ y - b @ b) / s2 - 0.5 * logdet
                 - 0.5 * n * math.log(2.0 * math.pi))
    return alpha, logL, used_jitter


def predict(gp: TrainedGP, Xstar) -> np.ndarray:
    """Posterior mean k(x*)^T alpha at each query row."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if Xstar.shape[1] != gp.X.shape[1]:
        raise ValueError(
            f"query dimension {Xstar.shape[1]} != training dimension {gp.X.shape[1]}")
    kstar = gp.kernel.gram(Xstar, gp.X, gp.params)
    return kstar @ gp.alpha


def log_marginal_likelihood(kernel: KernelFn, params: ParamVector, X, y,
                            sigma_n: float = 0.0) -> float:
    """Type-II objective: the logL of ``fit`` on the same inputs."""
    return fit(kernel, params, X, y, sigma_n=sigma_n).logL


def surrogate_objective(logL: float) -> float:
    """Stabilized training objective log(L + 1) with L = exp(logL).

    Bounded below by 0; never exponentiates large positives unsafely.
    """
    return float(np.logaddexp(logL, 0.0))


def bic(logL: float, M: int, N: int) -> float:
    """Bayesian information criterion: logL - 1/2 M log N (natural log)."""
    if N < 1 or M < 0:
        raise ValueError("need N >= 1 and M >= 0")
    return float(logL - 0.5 * M * math.log(N))


# the circuit selection metric beta(logO, M, N) is the BIC form applied to logO
beta = bic


def rmse(predictions, truth) -> float:
    """Root-mean-squared error over a test set."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if predictions.size == 0 or predictions.size != truth.size:
        raise ValueError("predictions and truth must have equal nonzero length")
    return float(np.sqrt(np.mean((truth - predictions) ** 2)))
