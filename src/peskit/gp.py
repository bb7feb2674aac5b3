"""Exact Gaussian process regression and model-selection scalars.

Implements kernel-matrix assembly, Cholesky-based fitting and prediction,
the log marginal likelihood, the stabilized surrogate objective log(L + d),
and the BIC / beta selection scores used by the kernel searches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dtrtrs

__all__ = [
    "ParamVector",
    "KernelFn",
    "TrainedGP",
    "ModelScore",
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


class KernelEvaluationError(RuntimeError):
    """A kernel returned a non-finite value."""


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky factorization failed at the jitter cap."""

    def __init__(self, msg, min_eigenvalue=None):
        super().__init__(msg)
        self.min_eigenvalue = min_eigenvalue


@dataclass(frozen=True)
class ParamVector:
    """Named, bounded hyperparameter vector.

    Each entry carries a bound pair and a scale tag ("linear" or "log")
    used by the optimizer to build its search space.
    """

    names: tuple
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scales: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        n = len(self.names)
        if not (self.values.size == self.lower.size == self.upper.size == n
                and len(self.scales) == n):
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

    def as_dict(self):
        return dict(zip(self.names, self.values))


class KernelFn:
    """Abstract covariance function over pairs of D-dimensional inputs.

    Subclasses implement ``eval`` (scalar) and may override ``gram`` with a
    vectorized path; the default gram loops over pairs.

    ``gram`` must return a fresh float array that no one else holds:
    ``build_kernel_matrix`` and ``fit`` overwrite it in place.
    """

    def eval(self, x, xp, params: ParamVector) -> float:
        raise NotImplementedError

    def gram(self, X, X2, params: ParamVector) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        out = np.empty((X.shape[0], X2.shape[0]))
        for i, x in enumerate(X):
            for j, xp in enumerate(X2):
                out[i, j] = self.eval(x, xp, params)
        return out

    def default_params(self) -> ParamVector:
        raise NotImplementedError

    def param_count(self, params: ParamVector) -> int:
        return params.size


@dataclass(frozen=True)
class TrainedGP:
    """Factorized training-set kernel matrix, weight vector and log marginal
    likelihood, all from one Cholesky factor.

    Immutable after fit; concurrent predict calls are safe.
    """

    X: np.ndarray
    L: np.ndarray
    alpha: np.ndarray
    kernel: KernelFn
    params: ParamVector
    sigma_n: float
    jitter: float
    logL: float


@dataclass(frozen=True)
class ModelScore:
    """Model-selection scalars for one fitted kernel."""

    logL: float
    logO: float
    bic: float
    beta: float
    M: int
    N: int

    @classmethod
    def from_logL(cls, logL, M, N, d=1.0):
        logO = surrogate_objective(logL, d)
        return cls(logL=logL, logO=logO, bic=bic(logL, M, N),
                   beta=beta(logO, M, N), M=M, N=N)


@dataclass(frozen=True)
class TraceRow:
    """One step of a structure search: the best candidate after it.

    ``score`` and ``criterion`` mean what they mean in a result row;
    ``criterion`` is what the search ranks by (BIC, logL or beta).
    ``rmse_holdout`` is NaN unless the circuit search is given a holdout.
    """

    iteration: int
    n_candidates: int
    winner: str
    score: float
    criterion: float
    M: int
    rmse_holdout: float
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


def build_kernel_matrix(kernel: KernelFn, params: ParamVector, X) -> np.ndarray:
    """Assemble the N x N kernel matrix; exactly symmetric by mirroring.

    The matrix is the kernel's own Gram with its strict lower triangle
    overwritten, in place, by the upper one. A non-finite entry raises
    ``KernelEvaluationError`` naming the first offending pair.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one input row")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input rows")
    K = np.asarray(kernel.gram(X, X, params), dtype=float)
    if not np.all(np.isfinite(K)):
        i, j = np.argwhere(~np.isfinite(K))[0]
        raise KernelEvaluationError(
            f"kernel returned non-finite value at pair ({i}, {j})")
    # mirror the upper triangle so symmetry holds bitwise
    low = _strict_lower(K.shape[0])
    K[low] = K.T[low]
    return K


def _cholesky_with_jitter(A, jitter, cap=JITTER_CAP):
    """Cholesky of A + j*I, escalating j by 10x up to cap on failure.

    A is overwritten: each attempt sets its diagonal to d + j in place, d
    being the diagonal on entry, so jitters never accumulate. At the cap
    the diagonal is restored to d and the smallest eigenvalue of A is
    reported.
    """
    n = A.shape[0]
    d = A.diagonal().copy()
    j = jitter
    while True:
        if j > 0:
            A.flat[::n + 1] = d + j
        try:
            return np.linalg.cholesky(A), j
        except np.linalg.LinAlgError:
            nxt = DEFAULT_JITTER if j == 0 else j * 10.0
            if nxt > cap:
                A.flat[::n + 1] = d
                min_eig = float(np.linalg.eigvalsh(A)[0])
                raise NotPositiveDefiniteError(
                    f"factorization failed at jitter cap {cap:g}; "
                    f"smallest eigenvalue {min_eig:.3e}",
                    min_eigenvalue=min_eig)
            j = nxt


def _trtrs(U, b, trans):
    x, info = dtrtrs(U, b, lower=0, trans=trans)
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
    return _trtrs(L.T, b, 1)


def _solve_lower_t(L, b):
    """Solve L^T x = b for a C-contiguous lower-triangular L, as
    ``scipy.linalg.solve_triangular(L.T, b, lower=False,
    check_finite=False)`` does."""
    return _trtrs(L.T, b, 0)


def fit(kernel: KernelFn, params: ParamVector, X, y,
        sigma_n: float = 0.0, jitter: float = DEFAULT_JITTER) -> TrainedGP:
    """Fit an exact GP: factorize K + sigma_n^2 I (+ jitter I), solve for alpha.

    The log marginal likelihood -1/2 y^T A^-1 y - 1/2 log|A| - N/2 log 2pi
    comes from the same factor (Rasmussen & Williams 2006, Alg. 2.1). The
    Gram is assembled once and its diagonal shifted in place.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.size != X.shape[0]:
        raise ValueError(f"y length {y.size} does not match N={X.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite targets")
    if sigma_n < 0 or jitter < 0:
        raise ValueError("sigma_n and jitter must be non-negative")
    A = build_kernel_matrix(kernel, params, X)
    A.flat[::A.shape[0] + 1] += sigma_n ** 2
    L, used_jitter = _cholesky_with_jitter(A, jitter)
    alpha = _solve_lower_t(L, _solve_lower(L, y))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    logL = float(-0.5 * y @ alpha - 0.5 * logdet
                 - 0.5 * y.size * math.log(2.0 * math.pi))
    return TrainedGP(X=X, L=L, alpha=alpha, kernel=kernel, params=params,
                     sigma_n=sigma_n, jitter=used_jitter, logL=logL)


def predict(gp: TrainedGP, Xstar) -> np.ndarray:
    """Posterior mean k(x*)^T alpha at each query row."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if Xstar.shape[1] != gp.X.shape[1]:
        raise ValueError(
            f"query dimension {Xstar.shape[1]} != training dimension {gp.X.shape[1]}")
    kstar = gp.kernel.gram(Xstar, gp.X, gp.params)
    return kstar @ gp.alpha


def log_marginal_likelihood(kernel: KernelFn, params: ParamVector, X, y,
                            sigma_n: float = 0.0,
                            jitter: float = DEFAULT_JITTER) -> float:
    """Type-II objective: the logL of ``fit`` on the same inputs."""
    return fit(kernel, params, X, y, sigma_n=sigma_n, jitter=jitter).logL


def surrogate_objective(logL: float, d: float = 1.0) -> float:
    """Stabilized training objective log(L + d) with L = exp(logL).

    Bounded below by log(d); never exponentiates large positives unsafely.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    return float(np.logaddexp(logL, math.log(d)))


def bic(logL: float, M: int, N: int) -> float:
    """Bayesian information criterion: logL - 1/2 M log N (natural log)."""
    if N < 1 or M < 0:
        raise ValueError("need N >= 1 and M >= 0")
    return float(logL - 0.5 * M * math.log(N))


def beta(logO: float, M: int, N: int) -> float:
    """Circuit selection metric: logO - 1/2 M log N (natural log)."""
    if N < 1 or M < 0:
        raise ValueError("need N >= 1 and M >= 0")
    return float(logO - 0.5 * M * math.log(N))


def rmse(predictions, truth) -> float:
    """Root-mean-squared error over a test set."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if predictions.size == 0 or predictions.size != truth.size:
        raise ValueError("predictions and truth must have equal nonzero length")
    return float(np.sqrt(np.mean((truth - predictions) ** 2)))
