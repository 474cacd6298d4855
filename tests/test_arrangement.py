import warnings

import numpy as np
import pytest

from conftest import random_generic_dataset
from oracles import enumerate_patterns_reference
from relucells._simplex import max_margin
from relucells.arrangement import (
    FEASIBILITY_EPS,
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
    # two-phase margin LPs on this dataset drift far enough for phase 1 to
    # report an unbounded ray. Enumeration starts its LPs from the slack
    # basis and runs no phase 1; test_simplex_rebuilds_drifted_phase1_costs
    # solves those two LPs by the two-phase reference simplex in oracles
    rng = np.random.default_rng([32, 9])
    ds = Dataset(rng.normal(size=(16, 1)), rng.normal(size=16))
    dec = enumerate_cells(ds)
    assert dec.size == expected_cell_count(16, 1)


def test_witness_interior_and_margin(dec3, ds3):
    for cell in dec3.cells:
        vals = np.array(cell.signs) * (ds3.lifted @ cell.witness)
        assert np.min(vals) >= cell.margin - 1e-9
        assert cell.margin > 0


CASES = ["d1", "d2", "d3", "duplicate", "one point"]


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
    for cell in dec.cells:
        t, theta = max_margin(ds.lifted[keep],
                              np.array(cell.signs, dtype=float)[keep])
        assert cell.margin == float(t)
        assert np.array_equal(cell.witness, theta)


@pytest.mark.parametrize("case", CASES)
def test_witness_side_skip_keeps_every_pattern(case):
    # skipping the LP on the parent witness's side admits the same cells,
    # in the same order, as solving both children's LPs at every level
    ds = _case_dataset(case)
    dec = _enumerate_quietly(ds)
    assert [c.signs for c in dec.cells] == enumerate_patterns_reference(
        ds.lifted, FEASIBILITY_EPS)


# (1, 16), (2, 8) and (3, 8) are the sizes of the benchmark's `cells` inputs
@pytest.mark.parametrize("d,n,lps", [(1, 16, 272), (2, 8, 172), (3, 8, 282),
                                     (1, 2, 6), (2, 5, 44)])
def test_margin_lp_count(d, n, lps):
    # generic data: two LPs for the first hyperplane, one per parent cell at
    # each middle level (its witness proves the child on its side), and two
    # per parent at the last level
    assert lps == 2 + sum(expected_cell_count(h, d) for h in range(1, n - 1)) \
        + 2 * expected_cell_count(n - 1, d)
    ds = random_generic_dataset(np.random.default_rng([d, n]), n, d)
    assert enumerate_cells(ds).margin_lps == lps


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
