"""Regularisation weights on neuron parameters.

Three 1-homogeneous weights w(a, b), each inducing the potential
V(a, b, c) = |c| w(a, b):

  * TV: w = ||(a, b)||, the variation-norm weight.
  * LabelNoisePaper: w_b = sqrt(E_D[relu(a.x + b)^2]), the data-dependent
    weight minimised implicitly by label-noise SGD.
  * LabelNoiseExact: the full closed-form minimum over the rescaling orbit
    of the raw implicit potential, which carries an extra active-set factor
    2 sqrt(E_D[(1 + |x|^2) chi]); see rescale_minimize.

All label-noise quantities are means of the two tables of second_moments.

Restricted to one cell of the arrangement, each weight is the gauge
g(v) = kappa * sqrt(v^T Q v) of a quadratic form, which is what the
finite solver consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arrangement import CellDecomposition
from .errors import PreconditionError
from .model import Dataset, Neuron, relu


class Variant(Enum):
    TV = "tv"
    LABEL_NOISE_PAPER = "label-noise"
    LABEL_NOISE_EXACT = "label-noise-exact"


@dataclass(frozen=True)
class PotentialKind:
    variant: Variant
    dataset: Dataset | None = None

    def __post_init__(self):
        if self.variant is not Variant.TV and self.dataset is None:
            raise PreconditionError(
                f"{self.variant.value} potential requires a dataset"
            )

    @classmethod
    def tv(cls) -> "PotentialKind":
        return cls(Variant.TV)

    @classmethod
    def label_noise(cls, dataset: Dataset) -> "PotentialKind":
        return cls(Variant.LABEL_NOISE_PAPER, dataset)

    @classmethod
    def label_noise_exact(cls, dataset: Dataset) -> "PotentialKind":
        return cls(Variant.LABEL_NOISE_EXACT, dataset)

    @classmethod
    def from_flag(cls, flag: str, dataset: Dataset | None) -> "PotentialKind":
        variant = Variant(flag)
        return cls(variant, dataset if variant is not Variant.TV else None)


def second_moments(points: np.ndarray, A: np.ndarray, b):
    """The (n, k) tables relu(pre)^2 and (1 + |x|^2) 1[pre > 1e-9 ||(a, b)||].

    pre = points @ A.T + b, the trainer's preactivation form: row i is the
    datapoint x_i, column j the inner parameters (A[j], b[j]). Every
    label-noise quantity is a mean of these two tables. A point on the
    neuron's hinge, to roundoff, is not counted, as relu'(0) = 0 and the
    cell gauges (cell_gauge) do: a wall atom has pre = +-roundoff there.
    """
    pre = points @ A.T + b
    sq = 1.0 + np.sum(points**2, axis=1)
    hinge = 1e-9 * np.sqrt(np.sum(A**2, axis=1) + np.square(b))
    return relu(pre) ** 2, sq[:, None] * (pre > hinge)


def rescale_minimize(neuron: Neuron, dataset: Dataset) -> tuple[float, float]:
    """Minimise the raw implicit potential over the orbit (la, lb, c/l), l > 0.

    With A = E_D[relu(a.x+b)^2] and B = c^2 E_D[(1+|x|^2) 1[a.x+b > 0]]
    (the indicator of second_moments is orbit-invariant) the objective is
    l^2 A + B / l^2, with minimiser l* = (B/A)^{1/4} and value 2 sqrt(A B).
    Returns (l*, value); (1, 0) when the neuron is inactive on the dataset.
    """
    R, S = second_moments(dataset.points, neuron.a[None, :], neuron.b)
    A = float(np.mean(R))
    B = neuron.c**2 * float(np.mean(S))
    if A <= 0.0 or B <= 0.0:
        return 1.0, 0.0
    return float((B / A) ** 0.25), float(2.0 * np.sqrt(A * B))


def weight(kind: PotentialKind, theta: np.ndarray) -> float | np.ndarray:
    """The 1-homogeneous weight w(a, b) with c split off (c = 1).

    theta is one (d+1)-vector, giving a float, or a (k, d+1) batch, giving
    a (k,) array. Label-noise weights are sqrt(A) and 2 sqrt(A S), with
    A and S the column means of the second_moments tables.
    """
    theta = np.asarray(theta, dtype=float)
    batch = np.atleast_2d(theta)
    if kind.variant is Variant.TV:
        w = np.sqrt(np.sum(batch**2, axis=1))
    else:
        # column-major tables sum each column in the order of a lone theta,
        # which keeps d=1 batch rows bit-identical to single calls
        R, S = map(np.asfortranarray, second_moments(
            kind.dataset.points, batch[:, :-1], batch[:, -1]))
        A = np.mean(R, axis=0)
        if kind.variant is Variant.LABEL_NOISE_PAPER:
            w = np.sqrt(A)
        else:
            w = 2.0 * np.sqrt(A * np.mean(S, axis=0))
    return w if theta.ndim == 2 else float(w[0])


def potential(kind: PotentialKind, neuron: Neuron) -> float:
    """V(a, b, c) = |c| w(a, b) for the selected variant."""
    return abs(neuron.c) * weight(kind, neuron.theta)


@dataclass(frozen=True)
class CellGauge:
    """Per-cell restriction of a potential: g(v) = kappa * sqrt(v^T Q v)."""

    cell_index: int
    Q: np.ndarray  # (d+1, d+1) symmetric PSD
    kappa: float

    def __call__(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float).ravel()
        return self.kappa * float(np.sqrt(max(0.0, v @ self.Q @ v)))


def cell_gauge(
    kind: PotentialKind, decomp: CellDecomposition, cell_index: int
) -> CellGauge:
    """Build the gauge of the potential restricted to one cell.

    On the cell, g(c * theta) = potential(kind, (theta, c)) exactly; cells
    with empty active set get the zero gauge for the label-noise variants.
    """
    k = decomp.lifted.shape[1]
    if kind.variant is Variant.TV:
        return CellGauge(cell_index, np.eye(k), 1.0)
    cell = decomp.cells[cell_index]
    active = list(cell.active_set)
    n = decomp.n
    Q = np.zeros((k, k))
    for i in active:
        Q += np.outer(decomp.lifted[i], decomp.lifted[i])
    Q /= n
    # PSD repair: clamp tiny negative eigenvalues from roundoff
    evals, evecs = np.linalg.eigh(Q)
    Q = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    if kind.variant is Variant.LABEL_NOISE_PAPER:
        kappa = 1.0
    else:
        sq = np.sum(decomp.lifted[active, :-1] ** 2, axis=1) if active else np.zeros(0)
        kappa = 2.0 * float(np.sqrt(np.sum(1.0 + sq) / n)) if active else 0.0
    return CellGauge(cell_index, Q, kappa)


def at_bulk(decomp: CellDecomposition, cell_index: int) -> bool:
    """True when the cell's active lifted points span R^{d+1}.

    Full rank of the active set makes the activation map locally injective,
    which is what licenses strict effective convexity there.
    """
    cell = decomp.cells[cell_index]
    active = list(cell.active_set)
    if not active:
        return False
    sub = decomp.lifted[active]
    return int(np.linalg.matrix_rank(sub, tol=1e-10)) == decomp.lifted.shape[1]
