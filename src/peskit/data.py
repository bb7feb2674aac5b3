"""Dataset ingestion, coordinate transform, splits, and a synthetic PES.

Inputs are atom-atom distances transformed elementwise to
x_i = exp(-r_i / a); energies are kept in cm^-1 throughout. The synthetic
generator provides Morse-sum and coupled-Morse surfaces for desk-scale
experiments in place of ab initio data.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "Split", "DataError", "transform", "load_csv",
           "write_rows", "split_random", "split_energy_threshold", "MorsePes",
           "PES_KINDS", "synth_pes", "standardize"]

PES_KINDS = ("morse-sum", "coupled-morse")


def standardize(y):
    """Z-score a target vector; returns (y_std, mean, scale) with scale > 0.

    ``bench._run_cell`` calls it once per cell; the searches fit its output
    as given, and predictions are mapped back to cm^-1 for RMSE.
    """
    y = np.asarray(y, dtype=float).ravel()
    mean = float(y.mean())
    scale = float(y.std())
    if scale <= 0.0:
        scale = 1.0
    return (y - mean) / scale, mean, scale


class DataError(RuntimeError):
    """Fatal problem with an input data file or split request."""


@dataclass(frozen=True)
class Dataset:
    """Transformed inputs X (N x D) and target energies y (cm^-1)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.atleast_2d(np.asarray(self.X, float)))
        object.__setattr__(self, "y", np.asarray(self.y, float).ravel())
        if self.y.size != self.X.shape[0]:
            raise DataError("X and y row counts disagree")
        if self.y.size < 2:
            raise DataError("need at least 2 data points")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise DataError("non-finite values in dataset")

    @property
    def n(self):
        return self.y.size

    @property
    def dims(self):
        return self.X.shape[1]

    @property
    def energy_range(self):
        return float(self.y.min()), float(self.y.max())

    def subset(self, indices):
        idx = np.asarray(indices, dtype=int)
        return Dataset(X=self.X[idx], y=self.y[idx])


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    test: np.ndarray


def transform(R, a):
    """Elementwise exp(-r / a); inverse is r = -a log x."""
    R = np.asarray(R, dtype=float)
    if a <= 0:
        raise ValueError("transform parameter a must be positive")
    if np.any(R < 0):
        raise ValueError("distances must be non-negative")
    return np.exp(-R / a)


def default_transform_scale(path) -> float:
    """2.5 if the file name (not a directory) has the H3O+ tag, else 1.0."""
    return 2.5 if "h3o" in Path(path).name.lower().replace("_", "") else 1.0


def load_csv(path, a=None) -> Dataset:
    """Load a `r1,...,rD,e` CSV (header required, '#' comments ignored)."""
    rows = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(line for line in fh if not line.lstrip().startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        dcols = [h for h in header if h.startswith("r")]
        expected = [f"r{i + 1}" for i in range(len(dcols))]
        if not dcols or dcols != expected or "e" not in header:
            raise DataError(
                f"{path}: header must be r1,...,rD,e; got {','.join(header)}")
        didx = [header.index(c) for c in dcols]
        eidx = header.index("e")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                r = [float(row[i]) for i in didx]
                e = float(row[eidx])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in r + [e]):
                raise DataError(f"{path}: line {lineno}: non-finite value")
            rows.append(r + [e])
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    arr = np.asarray(rows, dtype=float)
    R, y = arr[:, :-1], arr[:, -1]
    if a is None:
        a = default_transform_scale(path)
    return Dataset(X=transform(R, a), y=y)


def write_rows(rows, cls, path):
    """Write dataclass rows as CSV: one column per field of ``cls``, in order."""
    names = [f.name for f in fields(cls)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for r in rows:
            w.writerow([getattr(r, n) for n in names])


def split_random(data: Dataset, n_train, seed) -> Split:
    """Uniform train sample without replacement; test is the complement."""
    if not 0 < n_train < data.n:
        raise ValueError(f"n_train must be in (0, {data.n})")
    perm = np.random.default_rng(seed).permutation(data.n)
    return Split(train=np.sort(perm[:n_train]), test=np.sort(perm[n_train:]))


def split_energy_threshold(data: Dataset, fraction, n_train, seed) -> Split:
    """Train below the energy threshold, test on everything above it.

    The test set is empty, with a warning, only when every energy is equal.
    """
    if not 0 < fraction < 1:
        raise ValueError("threshold fraction must be in (0, 1)")
    lo, hi = data.energy_range
    threshold = lo + fraction * (hi - lo)
    below = np.flatnonzero(data.y <= threshold)
    above = np.flatnonzero(data.y > threshold)
    if below.size < n_train:
        raise DataError(
            f"only {below.size} points at or below threshold, need {n_train}")
    if above.size == 0:
        warnings.warn("energy-threshold split produced an empty test set")
    rng = np.random.default_rng(seed)
    train = np.sort(rng.choice(below, size=n_train, replace=False))
    return Split(train=train, test=above)


@dataclass(frozen=True)
class MorsePes:
    """Analytic Morse-sum surface with optional pairwise coupling.

    Energies vanish at the equilibrium geometry and are linearly scaled so
    that a fixed probe sample spans [~0, energy_top] cm^-1.
    """

    dims: int
    kind: str = "morse-sum"
    seed: int = 0
    energy_top: float = 20000.0
    r0: np.ndarray = field(init=False)
    width: np.ndarray = field(init=False)
    coupling: np.ndarray = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        if not 2 <= self.dims <= 6:
            raise ValueError("dims must be in [2, 6]")
        if self.kind not in PES_KINDS:
            raise ValueError(f"unknown synthetic PES kind {self.kind!r}")
        rng = np.random.default_rng(self.seed)
        object.__setattr__(self, "r0", rng.uniform(1.5, 2.5, self.dims))
        object.__setattr__(self, "width", rng.uniform(0.8, 1.2, self.dims))
        c = np.zeros((self.dims, self.dims))
        if self.kind == "coupled-morse":
            iu = np.triu_indices(self.dims, 1)
            c[iu] = rng.uniform(0.1, 0.3, iu[0].size)
        object.__setattr__(self, "coupling", c)
        probe = self._sample_distances(4096, np.random.default_rng(self.seed + 1))
        raw = self._raw_energy(probe)
        object.__setattr__(self, "scale", self.energy_top / float(raw.max()))

    def _sample_distances(self, n, rng):
        lo = self.r0 - 0.5
        hi = self.r0 + 2.5
        return rng.uniform(lo, hi, size=(n, self.dims))

    def _raw_energy(self, R):
        u = 1.0 - np.exp(-self.width * (np.atleast_2d(R) - self.r0))
        e = np.sum(u ** 2, axis=1)
        if self.kind == "coupled-morse":
            e = e + np.einsum("ni,ij,nj->n", u, self.coupling, u)
        return e

    def energy(self, R):
        """Energy in cm^-1 at raw distance rows R."""
        return self.scale * self._raw_energy(R)

    def dataset(self, n_points, seed) -> Dataset:
        rng = np.random.default_rng(seed)
        R = self._sample_distances(n_points, rng)
        return Dataset(X=transform(R, 1.0), y=self.energy(R))


def synth_pes(dims, n_points, seed, kind="morse-sum",
              energy_top=20000.0) -> Dataset:
    """Deterministic synthetic PES dataset; see MorsePes for the functional form."""
    return MorsePes(dims=dims, kind=kind, seed=seed,
                    energy_top=energy_top).dataset(n_points, seed=seed + 1)
