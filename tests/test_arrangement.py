import numpy as np
import pytest

from conftest import random_generic_dataset
from relucells.arrangement import (
    cell_moments,
    cell_sum_check,
    cone_membership,
    dataset_fingerprint,
    decomposition_to_json,
    enumerate_cells,
    expected_cell_count,
    is_generic,
    locate_cell,
)
from relucells.errors import PreconditionError, ZeroDirectionError
from relucells.model import AtomicMeasure, Dataset


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
    # the simplex's phase-1 cost row drifts far enough on this dataset to
    # report a phase-1 LP as unbounded; it is rebuilt from the basis instead
    rng = np.random.default_rng([32, 9])
    ds = Dataset(rng.normal(size=(16, 1)), rng.normal(size=16))
    dec = enumerate_cells(ds)
    assert dec.size == expected_cell_count(16, 1)


def test_witness_interior_and_margin(dec3, ds3):
    for cell in dec3.cells:
        vals = np.array(cell.signs) * (ds3.lifted @ cell.witness)
        assert np.min(vals) >= cell.margin - 1e-9
        assert cell.margin > 0


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


def test_cone_membership(dec3):
    for i, cell in enumerate(dec3.cells):
        assert cone_membership(dec3, i, cell.witness)
        assert cone_membership(dec3, i, 3.7 * cell.witness)  # cones are conic
        assert not cone_membership(dec3, i, -cell.witness)


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


def test_cell_moments(dec3):
    cell_idx = 0
    w = dec3.cells[cell_idx].witness
    mu = AtomicMeasure(
        np.array([[w[0]], [2 * w[0]]]), np.array([w[1], 2 * w[1]]),
        np.array([1.0, -0.5]), np.array([0.3, 0.7]),
    )
    ma, mb = cell_moments(dec3, cell_idx, mu)
    want_a = 0.3 * 1.0 * w[0] + 0.7 * (-0.5) * 2 * w[0]
    want_b = 0.3 * 1.0 * w[1] + 0.7 * (-0.5) * 2 * w[1]
    assert ma == pytest.approx([want_a])
    assert mb == pytest.approx(want_b)


def test_cell_moments_rejects_foreign_atom(dec3):
    w = dec3.cells[0].witness
    mu = AtomicMeasure(
        np.array([[-w[0]]]), np.array([-w[1]]), np.array([1.0]), np.array([1.0])
    )
    with pytest.raises(PreconditionError):
        cell_moments(dec3, 0, mu)


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
