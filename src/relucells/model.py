"""Function representations of a shallow ReLU network.

A width-m network f(x) = (1/m) sum_j c_j relu(a_j.x + b_j) is carried in
four interchangeable forms: raw neurons, a particle network, a lifted
atomic measure over (a, b, c), and its projection to a signed measure on
the unit sphere of lifted directions (a, b)/||(a, b)||.

ray_labels is the package's one rule for which directions lie on one ray:
single-linkage groups at angle < tol. Enumeration, extraction, merging and
clustering all call it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, DimensionMismatchError, ZeroDirectionError

# Two sphere directions are merged when their angular distance is below this.
DIRECTION_MERGE_TOL = 1e-10

# Shortlist margin on cosines for the Gram pass of ray_labels; far above
# the rounding gap between a matrix product and a vector dot product.
_GRAM_SLACK = 1e-9


def relu(t):
    """Elementwise max(0, t)."""
    return np.maximum(0.0, t)


@dataclass(frozen=True)
class Dataset:
    """n labelled points in R^d with lifted forms (x, 1)."""

    points: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        tgt = np.asarray(self.targets, dtype=float).ravel()
        if pts.shape[0] != tgt.shape[0]:
            raise DimensionMismatchError(
                f"{pts.shape[0]} points but {tgt.shape[0]} targets"
            )
        if pts.shape[0] < 1:
            raise DimensionMismatchError("dataset needs at least one sample")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tgt))):
            raise DatasetFormatError("non-finite values in dataset")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "targets", tgt)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def lifted(self) -> np.ndarray:
        """(n, d+1) array of x~ = (x, 1)."""
        return np.hstack([self.points, np.ones((self.n, 1))])


def load_dataset_csv(path) -> Dataset:
    """Read the `x1,...,xd,y` CSV format; errors carry row/column context."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "y":
            raise DatasetFormatError(f"{path}: header must be x1,...,xd,y")
        d = len(header) - 1
        if header[:d] != [f"x{i + 1}" for i in range(d)]:
            raise DatasetFormatError(f"{path}: header must be x1,...,xd,y")
        points, targets = [], []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise DatasetFormatError(
                    f"{path}:{rownum}: expected {d + 1} fields, got {len(row)}"
                )
            vals = []
            for colnum, tok in enumerate(row, start=1):
                try:
                    vals.append(float(tok))
                except ValueError:
                    raise DatasetFormatError(
                        f"{path}:{rownum}: column {colnum}: not a number: {tok!r}"
                    ) from None
            points.append(vals[:d])
            targets.append(vals[d])
    if not points:
        raise DatasetFormatError(f"{path}: no data rows")
    return Dataset(np.array(points), np.array(targets))


def save_dataset_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(dataset.d)] + ["y"])
        for x, y in zip(dataset.points, dataset.targets):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])


@dataclass(frozen=True)
class Neuron:
    """One ReLU unit x -> c * relu(a.x + b)."""

    a: np.ndarray
    b: float
    c: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))

    @property
    def theta(self) -> np.ndarray:
        """Lifted inner-layer parameters (a, b)."""
        return np.append(self.a, self.b)


def phi(neuron: Neuron, x) -> float:
    """Neuron output c * relu(a.x + b)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != neuron.a.shape[0]:
        raise DimensionMismatchError(
            f"input dim {x.shape[0]} != neuron dim {neuron.a.shape[0]}"
        )
    return neuron.c * float(relu(neuron.a @ x + neuron.b))


def rescale(neuron: Neuron, lam: float) -> Neuron:
    """The degeneracy map (a, b, c) -> (lam a, lam b, c/lam), lam > 0.

    phi is invariant under this map by 1-homogeneity of relu.
    """
    if lam <= 0:
        raise ValueError(f"rescale factor must be positive, got {lam}")
    return Neuron(lam * neuron.a, lam * neuron.b, neuron.c / lam)


@dataclass(frozen=True)
class ParticleNetwork:
    """Width-m network; parameters stored columnwise for vectorized use."""

    A: np.ndarray  # (m, d) inner weights
    b: np.ndarray  # (m,) biases
    c: np.ndarray  # (m,) outer weights

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        c = np.asarray(self.c, dtype=float).ravel()
        if not (A.shape[0] == b.shape[0] == c.shape[0]) or A.shape[0] < 1:
            raise DimensionMismatchError("inconsistent particle array lengths")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def neurons(self) -> list[Neuron]:
        return [Neuron(a, b, c) for a, b, c in zip(self.A, self.b, self.c)]

    def to_measure(self) -> "AtomicMeasure":
        """Empirical measure (1/m) sum_j delta_{theta_j}."""
        return AtomicMeasure(self.A, self.b, self.c, np.full(self.m, 1.0 / self.m))


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported lifted measure: atoms (a, b, c) with masses p >= 0."""

    A: np.ndarray  # (k, d)
    b: np.ndarray  # (k,)
    c: np.ndarray  # (k,)
    p: np.ndarray  # (k,) nonnegative masses

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        c = np.asarray(self.c, dtype=float).ravel()
        p = np.asarray(self.p, dtype=float).ravel()
        if not (A.shape[0] == b.shape[0] == c.shape[0] == p.shape[0]):
            raise DimensionMismatchError("inconsistent atom array lengths")
        if A.shape[0] and np.min(p) < 0:
            raise ValueError("atom masses must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "p", p)

    @property
    def k(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def thetas(self) -> np.ndarray:
        """(k, d+1) inner parameters (a, b) per atom."""
        return np.hstack([self.A, self.b[:, None]])


@dataclass(frozen=True)
class RadonMeasure:
    """Signed atomic measure on the sphere of lifted directions.

    directions: (k, d+1) unit vectors; masses: (k,) signed weights z.
    """

    directions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        z = np.asarray(self.masses, dtype=float).ravel()
        if dirs.shape[0] != z.shape[0]:
            raise DimensionMismatchError("directions/masses length mismatch")
        if dirs.shape[0]:
            norms = np.linalg.norm(dirs, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-12:
                raise ZeroDirectionError("Radon directions must be unit vectors")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "masses", z)

    @property
    def k(self) -> int:
        return self.directions.shape[0]

    @property
    def tv_norm(self) -> float:
        return float(np.sum(np.abs(self.masses)))

    @classmethod
    def empty(cls, d: int) -> "RadonMeasure":
        return cls(np.zeros((0, d + 1)), np.zeros(0))


def _as_inputs(x, d: int) -> np.ndarray:
    X = np.asarray(x, dtype=float)
    if X.ndim == 0:
        X = X[None]
    if X.ndim == 1:
        if d == 1 and X.shape[0] != 1:
            X = X[:, None]
        else:
            X = X[None, :]
    if X.shape[1] != d:
        raise DimensionMismatchError(f"input dim {X.shape[1]} != model dim {d}")
    return X


def predict_network(net: ParticleNetwork, x) -> np.ndarray:
    """(1/m) sum_j phi(theta_j, x); x may be a single point or a batch."""
    X = _as_inputs(x, net.d)
    pre = X @ net.A.T + net.b
    return relu(pre) @ net.c / net.m


def predict_measure(mu: AtomicMeasure, x) -> np.ndarray:
    """sum_k p_k c_k relu(a_k.x + b_k)."""
    X = _as_inputs(x, mu.d)
    if mu.k == 0:
        return np.zeros(X.shape[0])
    pre = X @ mu.A.T + mu.b
    return relu(pre) @ (mu.p * mu.c)


def predict_radon(nu: RadonMeasure, x) -> np.ndarray:
    """sum_s z_s relu(<x~, theta~_s>)."""
    d = nu.directions.shape[1] - 1
    X = _as_inputs(x, d)
    if nu.k == 0:
        return np.zeros(X.shape[0])
    lifted = np.hstack([X, np.ones((X.shape[0], 1))])
    return relu(lifted @ nu.directions.T) @ nu.masses


def angle(U, V) -> np.ndarray:
    """Angles between unit vectors, row by row: 2 atan2(|u - v|, |u + v|).

    Unlike arccos(u . v), which cannot resolve angles below about 1.5e-8,
    this is accurate down to 0 (exact duplicates give exactly 0).
    """
    U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
    return 2.0 * np.arctan2(
        np.linalg.norm(U - V, axis=-1), np.linalg.norm(U + V, axis=-1)
    )


def ray_labels(dirs: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage groups of unit vectors at angle(u, v) < tol.

    Returns one label per row: the smallest index in its group. One
    Gram-matrix pass shortlists candidate pairs and angle() confirms each,
    so rounding in the matrix product cannot change which rays join. The
    groups are the connected components of the confirmed pairs, found by
    min-label propagation with pointer jumping.
    """
    labels = np.arange(dirs.shape[0])
    i, j = np.nonzero(np.triu(dirs @ dirs.T >= np.cos(tol) - _GRAM_SLACK, 1))
    close = angle(dirs[i], dirs[j]) < tol
    i, j = i[close], j[close]
    while True:
        low = np.minimum(labels[i], labels[j])
        new = labels.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def merge_identical_rays(dirs: np.ndarray, masses: np.ndarray):
    """Merge unit directions that lie on one ray: ray_labels at
    DIRECTION_MERGE_TOL, so a chain of close directions is one ray.

    Returns (heads, summed, rep): indices of the kept directions (the
    smallest index of each group), masses summed in input order (read at
    heads), and for every direction the head of its group.
    """
    rep = ray_labels(dirs, DIRECTION_MERGE_TOL)
    summed = np.zeros(rep.size)
    np.add.at(summed, rep, masses)
    return np.flatnonzero(rep == np.arange(rep.size)), summed, rep


def sphere_atoms(mu: AtomicMeasure):
    """Push each atom to the sphere: (a, b, c, p) -> (theta/||theta||, p c ||theta||).

    Atoms with c = 0 or p = 0 are dropped; a zero inner direction with
    c != 0 has no sphere image and is rejected. Returns (keep, dirs, z):
    the indices of the kept atoms, their unit directions and signed masses.
    """
    thetas = mu.thetas
    norms = np.linalg.norm(thetas, axis=1)
    live = (mu.c != 0.0) & (mu.p > 0.0)
    if np.any(live & (norms <= 1e-15)):
        raise ZeroDirectionError(
            "atom with zero inner direction and nonzero outer weight"
        )
    keep = np.flatnonzero(live & (norms > 1e-15))
    z = mu.p[keep] * mu.c[keep] * norms[keep]
    return keep, thetas[keep] / norms[keep][:, None], z


def project_to_sphere(mu: AtomicMeasure) -> RadonMeasure:
    """Push the lifted measure to the sphere (see sphere_atoms).

    Atoms whose directions coincide within DIRECTION_MERGE_TOL merge by
    summing signed masses. Predictions are preserved exactly by
    1-homogeneity of relu.
    """
    keep, dirs, z = sphere_atoms(mu)
    if not keep.size:
        return RadonMeasure.empty(mu.d)
    heads, summed, _ = merge_identical_rays(dirs, z)
    return RadonMeasure(dirs[heads], summed[heads])
