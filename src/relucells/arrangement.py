"""Cells of the central hyperplane arrangement dual to a dataset.

Every datapoint x_i induces the hyperplane {theta : <theta, x~_i> = 0} in
the lifted parameter space R^{d+1}. The full-dimensional regions of this
arrangement are closed convex cones ("cells"); two inner-layer parameters
lie in the same cell iff they activate the same datapoints. Repeated
points, whose lifted rows lie on one ray (model.ray_labels), give one
hyperplane.

Data in general position is enumerated from the arrangement's vertex rays.
With n >= d+1 generic rows every cell is a pointed cone, and each of its
extreme rays is the null ray of d rows, so the sign patterns next to those
rays cover every cell (with fewer rows, every pattern is a cell). Each
distinct candidate takes one margin-maximization LP on all rows. No central
arrangement of n hyperplanes in R^{d+1} has more cells than Cover's count
(expected_cell_count), so candidates that reach it are all the cells.
Otherwise (non-generic data, or a candidate lost to rounding)
enumeration is by incremental insertion from the empty sign pattern: a
candidate sign extension is admitted by a margin LP, except on the side of
the new hyperplane that holds its parent's witness, which that witness
already proves. Both paths give a cell the witness and margin of the LP on
its full pattern, so they agree exactly where both run.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, product

import numpy as np

from ._simplex import max_margin
from .errors import CellLookupError, PreconditionError, ZeroDirectionError
from .model import DIRECTION_MERGE_TOL, Dataset, ray_labels

FEASIBILITY_EPS = 1e-9
BOUNDARY_EPS = 1e-9
MAX_CELLS_GUARD = 10**6
# subsets per stacked rank test in is_generic: bounds its memory at about
# RANK_CHUNK * (d+1)^2 floats
RANK_CHUNK = 4096


@dataclass(frozen=True)
class Cell:
    """A full-dimensional closed convex cone of the arrangement."""

    signs: tuple  # length n over {+1, -1}; +1 means datapoint is active
    witness: np.ndarray  # strictly interior point, ||witness||_inf <= 1
    margin: float  # min_i signs[i] * <witness, x~_i> > 0

    @property
    def active_set(self) -> tuple:
        return tuple(i for i, s in enumerate(self.signs) if s > 0)


@dataclass(frozen=True)
class CellDecomposition:
    cells: tuple
    lifted: np.ndarray  # (n, d+1) dataset lift the cells were built from
    generic: bool  # dataset in general position (rank test)
    margin_lps: int  # max_margin solves the enumeration made
    margin_pivots: int  # Bland pivots over those solves
    lookup: dict = field(repr=False)

    @property
    def n(self) -> int:
        return self.lifted.shape[0]

    @property
    def size(self) -> int:
        return len(self.cells)


def expected_cell_count(n: int, d: int) -> int:
    """Region count of n generic central hyperplanes in R^{d+1}."""
    from math import comb

    return 2 * sum(comb(n - 1, k) for k in range(d + 1))


def is_generic(dataset: Dataset) -> bool:
    """True iff every min(n, d+1) lifted points are linearly independent."""
    lifted = dataset.lifted
    n, k = lifted.shape
    size = min(n, k)
    subsets = combinations(range(n), size)
    while True:
        idx = np.fromiter(
            chain.from_iterable(islice(subsets, RANK_CHUNK)), dtype=np.intp
        ).reshape(-1, size)
        if idx.shape[0] == 0:
            return True
        if np.any(np.linalg.matrix_rank(lifted[idx], tol=1e-10) < size):
            return False


def _dedup_hyperplanes(lifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group lifted points on one ray, which for rows (x, 1) means equal
    points; returns (unique rows, rep index per row)."""
    labels = ray_labels(
        lifted / np.linalg.norm(lifted, axis=1)[:, None], DIRECTION_MERGE_TOL
    )
    heads, rep = np.unique(labels, return_inverse=True)
    if heads.size < labels.size:
        warnings.warn(
            f"{labels.size - heads.size} duplicate datapoint(s) produce "
            "identical hyperplanes; deduplicated for enumeration"
        )
    return lifted[heads], rep


def _orthants(m: int) -> np.ndarray:
    """All 2^m active patterns of length m (True is the active side)."""
    return np.array(list(product((True, False), repeat=m)), dtype=bool)


def _vertex_cells(uniq: np.ndarray) -> tuple[dict, int, int]:
    """Cells next to the vertex rays of the arrangement of rows uniq.

    For each d-subset S of the rows, r is the null ray of uniq[S]; the
    patterns next to +-r take the signs of uniq @ r off S and every local
    orthant on S. With fewer rows than d+1, every pattern is a candidate.
    Candidates are held as one byte per row until deduplicated, and each
    distinct one takes one margin LP on all rows. Returns
    ({signs: (margin, witness)} of the admitted candidates, LPs, pivots).
    """
    n_u, k = uniq.shape
    if n_u < k:
        active = _orthants(n_u)
    else:
        subsets = np.array(list(combinations(range(n_u), k - 1)))
        rays = np.linalg.svd(uniq[subsets])[2][:, -1]
        local = _orthants(k - 1)
        active = np.empty((len(subsets), local.shape[0], n_u), dtype=bool)
        active[:] = (rays @ uniq.T > 0)[:, None]
        np.put_along_axis(active, subsets[:, None], local[None], axis=2)
        active = active.reshape(-1, n_u)
        active = np.concatenate([active, ~active])
    found = {}
    lps = pivots = 0
    for key in dict.fromkeys(map(bytes, active)):
        cand = tuple(1 if a else -1 for a in key)
        t, theta, p = max_margin(uniq, np.array(cand, float))
        lps += 1
        pivots += p
        if t > FEASIBILITY_EPS:
            found[cand] = (t, theta)
    return found, lps, pivots


def _insertion_cells(uniq: np.ndarray) -> tuple[dict, int, int]:
    """Cells of the arrangement of rows uniq, by incremental insertion.

    Grows sign patterns one hyperplane at a time from the empty pattern,
    keeping each with a (margin, witness) pair that proves it a cell. A
    parent's witness theta with margin t lies strictly on one side of the
    new hyperplane, at margin min(t, |v|) for v = <x~_h, theta>: that child
    needs no LP, since its LP would reach at least that margin. The last
    level solves both children, so each cell keeps the (margin, witness) of
    the LP that admitted its full pattern. Returns as _vertex_cells.
    """
    n_u, k = uniq.shape
    partial: dict[tuple, tuple] = {(): (0.0, np.zeros(k))}
    lps = pivots = 0
    for h in range(n_u):
        rows = uniq[: h + 1]
        grown = {}
        for signs, (t, theta) in partial.items():
            v = float(uniq[h] @ theta)
            kept = min(t, abs(v)) if h < n_u - 1 else 0.0
            for s_new in (1, -1):
                cand = signs + (s_new,)
                if kept > FEASIBILITY_EPS and s_new * v > 0:
                    grown[cand] = (kept, theta)
                    continue
                t_new, theta_new, p = max_margin(rows, np.array(cand, float))
                lps += 1
                pivots += p
                if t_new > FEASIBILITY_EPS:
                    grown[cand] = (t_new, theta_new)
        partial = grown
    return partial, lps, pivots


def enumerate_cells(dataset: Dataset) -> CellDecomposition:
    """Enumerate all full-dimensional cells: from the vertex rays on
    generic data, by incremental insertion otherwise."""
    lifted = dataset.lifted
    uniq, rep = _dedup_hyperplanes(lifted)
    bound = expected_cell_count(uniq.shape[0], dataset.d)
    if bound > MAX_CELLS_GUARD:
        raise PreconditionError(
            f"formula bound {bound} exceeds guard {MAX_CELLS_GUARD}"
        )

    generic = is_generic(dataset)
    found, lps, pivots = _vertex_cells(uniq) if generic else ({}, 0, 0)
    # every admitted candidate is a cell, and no arrangement of these
    # hyperplanes has more than `bound` cells: short of it, a candidate was
    # missed, so insertion decides
    if len(found) != bound:
        found, more_lps, more_pivots = _insertion_cells(uniq)
        lps += more_lps
        pivots += more_pivots

    cells = [
        Cell(tuple(int(signs[r]) for r in rep), theta, float(t))
        for signs, (t, theta) in found.items()
    ]
    cells.sort(key=lambda c: c.signs)
    lookup = {c.signs: i for i, c in enumerate(cells)}
    return CellDecomposition(
        tuple(cells), lifted, generic, lps, pivots, lookup
    )


def locate_cell(
    decomp: CellDecomposition, theta: np.ndarray
) -> tuple[int, np.ndarray]:
    """Map a parameter to its cell; boundary coords resolve to +1 (active side).

    Returns (cell index, boolean boundary flags per datapoint).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    norm = np.linalg.norm(theta)
    if norm <= 0.0:
        raise ZeroDirectionError("cannot locate the zero parameter")
    vals = decomp.lifted @ theta
    boundary = np.abs(vals) <= BOUNDARY_EPS * norm
    signs = np.where(vals > 0, 1, -1)
    signs[boundary] = 1  # closed-cell convention, active side
    key = tuple(int(s) for s in signs)
    idx = decomp.lookup.get(key)
    if idx is not None:
        return idx, boundary
    # boundary pattern that is not itself a full-dimensional cell: choose the
    # matching cell with the most active-side boundary coordinates
    best = None
    fixed = ~boundary
    for i, cell in enumerate(decomp.cells):
        cs = np.array(cell.signs)
        if np.all(cs[fixed] == signs[fixed]):
            score = int(np.sum(cs[boundary] == 1))
            cand = (-score, cell.signs, i)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise CellLookupError(f"no cell matches resolved pattern {key}")
    return best[2], boundary


def cell_sum_check(
    decomp: CellDecomposition, theta: np.ndarray, theta_p: np.ndarray
) -> bool:
    """Check ReLU additivity relu(u)+relu(u') = relu(u+u') at every datapoint.

    Holds whenever theta and theta_p lie in the same cell (precondition).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    theta_p = np.asarray(theta_p, dtype=float).ravel()
    i1, _ = locate_cell(decomp, theta)
    i2, _ = locate_cell(decomp, theta_p)
    if i1 != i2:
        raise PreconditionError("parameters do not lie in the same cell")
    u = decomp.lifted @ theta
    v = decomp.lifted @ theta_p
    lhs = np.maximum(u, 0.0) + np.maximum(v, 0.0)
    rhs = np.maximum(u + v, 0.0)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return bool(np.max(np.abs(lhs - rhs)) <= 1e-9 * scale)


def decomposition_to_json(decomp: CellDecomposition) -> str:
    payload = {
        "n": decomp.n,
        "d": decomp.lifted.shape[1] - 1,
        "generic": decomp.generic,
        "fingerprint": dataset_fingerprint(decomp.lifted),
        "cells": [
            {
                "signs": list(c.signs),
                "active_set": list(c.active_set),
                "witness": c.witness.tolist(),
                "margin": c.margin,
            }
            for c in decomp.cells
        ],
    }
    return json.dumps(payload, indent=2)


def dataset_fingerprint(lifted: np.ndarray) -> str:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(lifted).tobytes()).hexdigest()[:16]
