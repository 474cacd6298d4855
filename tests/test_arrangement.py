import warnings
from itertools import combinations

import numpy as np
import pytest

from conftest import random_generic_dataset
from oracles import enumerate_patterns_reference, is_generic_reference
from relucells import arrangement
from relucells._simplex import max_margin
from relucells.arrangement import (
    FEASIBILITY_EPS,
    RANK_CHUNK,
    _dedup_hyperplanes,
    _insertion_cells,
    _vertex_cells,
    cell_sum_check,
    dataset_fingerprint,
    decomposition_to_json,
    enumerate_cells,
    expected_cell_count,
    is_generic,
    locate_cell,
)
from relucells.errors import PreconditionError, ZeroDirectionError
from relucells.model import Dataset


def test_expected_cell_count_small_cases():
    assert expected_cell_count(1, 1) == 2
    assert expected_cell_count(2, 1) == 4
    assert expected_cell_count(3, 1) == 6
    # d+1 >= n: all 2^n patterns are cells
    assert expected_cell_count(3, 2) == 8
    assert expected_cell_count(5, 2) == 22


def test_enumerate_matches_formula():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for n in (2, 3, 5):
            ds = random_generic_dataset(rng, n, d)
            dec = enumerate_cells(ds)
            assert dec.size == expected_cell_count(n, d)
            assert dec.generic


def test_enumerate_survives_drifted_phase1_costs():
    # two-phase margin LPs of the insertion path on this dataset drift far
    # enough for phase 1 to report an unbounded ray. Enumeration starts its
    # LPs from the slack basis and runs no phase 1;
    # test_simplex_rebuilds_drifted_phase1_costs solves those two LPs by the
    # two-phase reference simplex in oracles
    rng = np.random.default_rng([32, 9])
    ds = Dataset(rng.normal(size=(16, 1)), rng.normal(size=16))
    found, _, _ = _insertion_cells(ds.lifted)
    assert len(found) == expected_cell_count(16, 1)
    assert enumerate_cells(ds).size == expected_cell_count(16, 1)


def test_witness_interior_and_margin(dec3, ds3):
    for cell in dec3.cells:
        vals = np.array(cell.signs) * (ds3.lifted @ cell.witness)
        assert np.min(vals) >= cell.margin - 1e-9
        assert cell.margin > 0


GENERIC_CASES = ["d1", "d2", "d3", "d3 n2", "one point"]
# non-generic data takes the insertion path
CASES = GENERIC_CASES + ["duplicate", "collinear d2", "coplanar d3"]


def _case_dataset(case):
    rng = np.random.default_rng(21)
    return {
        "d1": lambda: random_generic_dataset(rng, 6, 1),
        "d2": lambda: random_generic_dataset(rng, 5, 2),
        "d3": lambda: random_generic_dataset(rng, 5, 3),
        "duplicate": lambda: Dataset(np.array([[0.3, -1.0], [0.8, 0.4],
                                               [0.3, -1.0], [-0.6, 0.2]]),
                                     np.zeros(4)),
        "one point": lambda: Dataset(np.array([[0.7]]), np.array([1.0])),
        "d3 n2": lambda: random_generic_dataset(rng, 2, 3),
        # the first three points lie on the line x2 = 2 x1 - 1
        "collinear d2": lambda: Dataset(np.array([[0.0, -1.0], [0.5, 0.0],
                                                  [1.5, 2.0], [-0.4, 0.9],
                                                  [0.8, -0.7]]),
                                        np.zeros(5)),
        # the first four points lie on the plane x3 = 0.5
        "coplanar d3": lambda: Dataset(np.array([[0.2, -0.6, 0.5],
                                                 [-0.9, 0.3, 0.5],
                                                 [0.7, 0.8, 0.5],
                                                 [-0.1, -0.4, 0.5],
                                                 [0.4, 0.1, -1.2],
                                                 [-0.5, 0.6, 0.9]]),
                                       np.zeros(6)),
    }[case]()


def _enumerate_quietly(ds):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return enumerate_cells(ds)


@pytest.mark.parametrize("case", CASES)
def test_witness_is_the_admitting_lp(case):
    # every cell keeps the (margin, witness) of the LP on all unique rows
    # that admitted it, so solving that LP afresh reproduces both exactly
    ds = _case_dataset(case)
    dec = _enumerate_quietly(ds)
    _, first = np.unique(ds.lifted, axis=0, return_index=True)
    keep = np.sort(first)
    pivots = 0
    for cell in dec.cells:
        t, theta, p = max_margin(ds.lifted[keep],
                                 np.array(cell.signs, dtype=float)[keep])
        assert cell.margin == float(t)
        assert np.array_equal(cell.witness, theta)
        pivots += p
    assert dec.generic == (case in GENERIC_CASES)
    if dec.generic:  # one LP per cell, so the cells' LPs are all the pivots
        assert dec.margin_lps == dec.size
        assert dec.margin_pivots == pivots


@pytest.mark.parametrize("case", CASES)
def test_witness_side_skip_keeps_every_pattern(case):
    # skipping the LP on the parent witness's side, or taking the patterns
    # next to the vertex rays, admits the same cells, in the same order, as
    # solving both children's LPs at every level
    ds = _case_dataset(case)
    dec = _enumerate_quietly(ds)
    assert [c.signs for c in dec.cells] == enumerate_patterns_reference(
        ds.lifted, FEASIBILITY_EPS)


@pytest.mark.parametrize("case", GENERIC_CASES)
def test_vertex_and_insertion_paths_agree(case):
    # both paths give each cell the margin LP of its full pattern on the
    # same rows, so their cells, margins and witnesses are equal
    uniq, _ = _dedup_hyperplanes(_case_dataset(case).lifted)
    vertex, _, _ = _vertex_cells(uniq)
    insertion, _, _ = _insertion_cells(uniq)
    assert vertex.keys() == insertion.keys()
    for signs, (t, theta) in vertex.items():
        assert t == insertion[signs][0]
        assert np.array_equal(theta, insertion[signs][1])


def test_missed_vertex_cell_falls_back_to_insertion(monkeypatch):
    # a candidate set short of the cell count is not trusted: insertion
    # enumerates again, and the LPs of both paths are counted
    ds = _case_dataset("d2")
    full = enumerate_cells(ds)

    def short(uniq):
        found, lps, pivots = _vertex_cells(uniq)
        found.pop(next(iter(found)))
        return found, lps, pivots

    monkeypatch.setattr(arrangement, "_vertex_cells", short)
    dec = enumerate_cells(ds)
    assert [c.signs for c in dec.cells] == [c.signs for c in full.cells]
    assert all(np.array_equal(a.witness, b.witness)
               for a, b in zip(dec.cells, full.cells))
    _, insertion_lps, insertion_pivots = _insertion_cells(ds.lifted)
    assert dec.margin_lps == full.margin_lps + insertion_lps
    assert dec.margin_pivots == full.margin_pivots + insertion_pivots


# (1, 16), (2, 8) and (3, 8) are the sizes of the benchmark's `cells` inputs
@pytest.mark.parametrize("d,n,insertion_lps", [
    (1, 16, 272), (2, 8, 172), (3, 8, 282), (1, 2, 6), (2, 5, 44)])
def test_margin_lp_count(d, n, insertion_lps):
    # generic data takes one LP per cell, the candidates next to the vertex
    # rays. Insertion takes two LPs for the first hyperplane, one per parent
    # cell at each middle level (its witness proves the child on its side),
    # and two per parent at the last level
    assert insertion_lps == 2 + sum(
        expected_cell_count(h, d) for h in range(1, n - 1)
    ) + 2 * expected_cell_count(n - 1, d)
    ds = random_generic_dataset(np.random.default_rng([d, n]), n, d)
    assert enumerate_cells(ds).margin_lps == expected_cell_count(n, d)
    assert _insertion_cells(ds.lifted)[1] == insertion_lps


def test_one_point_takes_two_lps():
    assert _enumerate_quietly(_case_dataset("one point")).margin_lps == 2


def test_locate_cell_roundtrip(dec3):
    for i, cell in enumerate(dec3.cells):
        idx, boundary = locate_cell(dec3, cell.witness)
        assert idx == i
        assert not boundary.any()


def test_locate_cell_boundary_resolves_active(ds3, dec3):
    # a direction orthogonal to the first lifted point sits on its wall
    x = ds3.lifted[0]
    theta = np.array([-x[1], x[0]])
    idx, boundary = locate_cell(dec3, theta)
    assert boundary[0]
    assert dec3.cells[idx].signs[0] == 1


def test_locate_cell_rejects_zero(dec3):
    with pytest.raises(ZeroDirectionError):
        locate_cell(dec3, np.zeros(2))


def test_cell_sum_check_same_cell(dec3):
    rng = np.random.default_rng(4)
    for cell in dec3.cells:
        th1 = (0.5 + rng.random()) * cell.witness
        th2 = (0.5 + rng.random()) * cell.witness
        assert cell_sum_check(dec3, th1, th2)


def test_cell_sum_check_rejects_cross_cell(dec3):
    w = dec3.cells[0].witness
    with pytest.raises(PreconditionError):
        cell_sum_check(dec3, w, -w)


def test_duplicate_points_warn_and_dedup():
    ds = Dataset(np.array([[1.0], [1.0], [0.5]]), np.array([1.0, 1.0, 2.0]))
    with pytest.warns(UserWarning, match="duplicate"):
        dec = enumerate_cells(ds)
    # two distinct hyperplanes: 4 cells, signs extended to all 3 rows
    assert dec.size == 4
    for cell in dec.cells:
        assert cell.signs[0] == cell.signs[1]


def test_near_duplicate_point_dedups_like_an_exact_one():
    points = np.array([[1.0], [1.0], [0.5]])
    targets = np.array([1.0, 1.0, 2.0])
    with pytest.warns(UserWarning, match="duplicate"):
        exact = enumerate_cells(Dataset(points, targets))
    points[1, 0] += 1e-11
    with pytest.warns(UserWarning, match="1 duplicate"):
        near = enumerate_cells(Dataset(points, targets))
    assert [c.signs for c in near.cells] == [c.signs for c in exact.cells]


def test_decomposition_json_and_fingerprint(dec3, ds3):
    import json

    payload = json.loads(decomposition_to_json(dec3))
    assert payload["n"] == 3 and payload["d"] == 1
    assert len(payload["cells"]) == dec3.size
    assert payload["fingerprint"] == dataset_fingerprint(ds3.lifted)


def test_is_generic_detects_collinear():
    ds = Dataset(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
                 np.zeros(3))
    # lifted points (1,1,1), (2,2,1), (3,3,1) are linearly dependent
    assert not is_generic(ds)


def test_is_generic_matches_loop_reference():
    # the stacked rank test reads the subsets in chunks; here the only
    # dependent pair is the last subset, past the first chunk
    points = np.random.default_rng(8).normal(size=(100, 1))
    assert len(list(combinations(range(100), 2))) > RANK_CHUNK
    cases = [Dataset(points, np.zeros(100))]
    points = points.copy()
    points[99] = points[98]
    cases.append(Dataset(points, np.zeros(100)))
    cases += [_case_dataset(case) for case in CASES]
    for ds in cases:
        assert is_generic(ds) == is_generic_reference(ds.lifted)
    assert [is_generic(ds) for ds in cases[:2]] == [True, False]
