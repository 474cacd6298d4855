"""Cells of the central hyperplane arrangement dual to a dataset.

Every datapoint x_i induces the hyperplane {theta : <theta, x~_i> = 0} in
the lifted parameter space R^{d+1}. The full-dimensional regions of this
arrangement are closed convex cones ("cells"); two inner-layer parameters
lie in the same cell iff they activate the same datapoints. Repeated
points, whose lifted rows lie on one ray (model.ray_labels), give one
hyperplane.

Cells are enumerated from the arrangement's vertex rays, for any data. In
a basis of the lifted rows' span every cell is a pointed cone, and each of
its extreme rays is the null ray of some rows of rank one less than the
span's; the cells next to such a ray are fixed off the hyperplanes that
hold it and, on those, are the cells of their own arrangement (every
orthant for independent rows, by recursion otherwise). Each distinct
candidate sign pattern takes one margin-maximization LP on all rows (the
LPs are solved MARGIN_BATCH at a time, in one stack), and is admitted when
the LP's margin t and the margin its witness attains on the pattern both
exceed FEASIBILITY_EPS; the cell keeps that t and witness. `generic` reports whether the cells reach Cover's count
(expected_cell_count) for the n datapoints, which happens exactly for data
in general position.
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
# relative roundoff level: a row's hyperplane holds a ray when
# |<row, ray>| <= RAY_TOL * ||row||, and singular values below RAY_TOL times
# the largest count as zero
RAY_TOL = 1e-13
# subsets per stacked rank test in is_generic: bounds its memory at about
# RANK_CHUNK * (d+1)^2 floats
RANK_CHUNK = 4096
# margin LPs per max_margin call: bounds its stack of tableaux at about
# MARGIN_BATCH * (m + 2d + 3) * (m + 4d + 7) floats for m unique rows
MARGIN_BATCH = 128


@dataclass(frozen=True)
class Cell:
    """A full-dimensional closed convex cone of the arrangement."""

    signs: tuple  # length n over {+1, -1}; +1 means datapoint is active
    witness: np.ndarray  # strictly interior point, ||witness||_inf <= 1
    margin: float  # the admitting LP's t > FEASIBILITY_EPS

    @property
    def active_set(self) -> tuple:
        return tuple(i for i, s in enumerate(self.signs) if s > 0)


@dataclass(frozen=True)
class CellDecomposition:
    cells: tuple
    lifted: np.ndarray  # (n, d+1) dataset lift the cells were built from
    generic: bool  # cells reach Cover's count: points in general position
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


def _candidates(rows: np.ndarray) -> np.ndarray:
    """Active patterns (True is the active side) of the cells of the central
    arrangement of rows, some more than once.

    In a basis of the rows' span (rank r; the lineality space dropped) every
    cell is a pointed cone, so it has an extreme ray: the null ray of some
    r-1 rows of rank r-1. The cells next to a ray +-rho take the signs of
    rows @ rho off the rows T whose hyperplanes hold rho, and on T the
    cells of T's own arrangement: every local orthant when T is those r-1
    rows, by recursion otherwise. Independent rows give every orthant.
    """
    m, k = rows.shape
    sv, basis = np.linalg.svd(rows, full_matrices=False)[1:]
    r = int(np.sum(sv > RAY_TOL * sv[0]))
    if r == m:
        return _orthants(m)
    if r < k:
        rows = rows @ basis[:r].T
    subsets = np.array(list(combinations(range(m), r - 1)))
    _, sub_sv, vt = np.linalg.svd(rows[subsets])
    ranked = np.all(sub_sv > RAY_TOL * sub_sv[:, :1], axis=1)
    subsets, vals = subsets[ranked], vt[ranked, -1] @ rows.T
    held = np.abs(vals) <= RAY_TOL * np.linalg.norm(rows, axis=1)
    np.put_along_axis(held, subsets, True, axis=1)
    simple = held.sum(axis=1) == r - 1
    local = _orthants(r - 1)
    active = np.empty((simple.sum(), local.shape[0], m), dtype=bool)
    active[:] = (vals[simple] > 0)[:, None]
    np.put_along_axis(active, subsets[simple][:, None], local[None], axis=2)
    parts = [active.reshape(-1, m)]
    # one recursion per distinct set of hyperplanes through a ray
    degenerate = np.flatnonzero(~simple)
    for i in dict(zip(map(bytes, held[degenerate]), degenerate)).values():
        local = _candidates(rows[held[i]])
        part = np.repeat((vals[i] > 0)[None], local.shape[0], axis=0)
        part[:, held[i]] = local
        parts.append(part)
    active = np.concatenate(parts)
    return np.concatenate([active, ~active])


def enumerate_cells(dataset: Dataset) -> CellDecomposition:
    """Enumerate all full-dimensional cells: one margin LP per distinct
    candidate next to a vertex ray."""
    lifted = dataset.lifted
    uniq, rep = _dedup_hyperplanes(lifted)
    bound = expected_cell_count(uniq.shape[0], dataset.d)
    if bound > MAX_CELLS_GUARD:
        raise PreconditionError(
            f"formula bound {bound} exceeds guard {MAX_CELLS_GUARD}"
        )

    active = _candidates(uniq)
    keys = dict.fromkeys(map(bytes, active))
    active = np.frombuffer(b"".join(keys), dtype=bool).reshape(len(keys), -1)
    cands = np.where(active, 1, -1)
    batches = [max_margin(uniq, cands[i : i + MARGIN_BATCH])
               for i in range(0, len(cands), MARGIN_BATCH)]
    t, thetas, pivots = map(np.concatenate, zip(*batches))
    found = np.flatnonzero(t > FEASIBILITY_EPS)
    # on nearly dependent rows an LP can report t > FEASIBILITY_EPS with a
    # witness that breaks its pattern: admit the cells whose witness holds
    holds = np.min(cands[found] * (thetas[found] @ uniq.T), axis=1)
    cells = [
        Cell(tuple(cands[i, rep].tolist()), thetas[i], float(t[i]))
        for i in found[holds > FEASIBILITY_EPS]
    ]
    cells.sort(key=lambda c: c.signs)
    lookup = {c.signs: i for i, c in enumerate(cells)}
    generic = len(cells) == expected_cell_count(dataset.n, dataset.d)
    return CellDecomposition(
        tuple(cells), lifted, generic, len(cands), int(pivots.sum()), lookup
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
