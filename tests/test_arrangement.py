import importlib.util
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import random_generic_dataset, same_bits
from oracles import (
    bland_stack_reference, enumerate_patterns_reference, is_generic_reference,
)
from relucells import _simplex, arrangement
from relucells._simplex import max_margin
from relucells.arrangement import (
    FEASIBILITY_EPS,
    RANK_CHUNK,
    dataset_fingerprint,
    decomposition_to_json,
    enumerate_cells,
    expected_cell_count,
    is_generic,
    locate_cell,
)
from relucells.errors import (
    NumericalError, ZeroDirectionError,
)
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
    # two-phase margin LPs on prefixes of this dataset drift far enough for
    # phase 1 to report an unbounded ray. Enumeration starts its LPs from the
    # slack basis and runs no phase 1;
    # test_simplex_rebuilds_drifted_phase1_costs solves those two LPs by the
    # two-phase reference simplex in oracles
    rng = np.random.default_rng([32, 9])
    ds = Dataset(rng.normal(size=(16, 1)), rng.normal(size=16))
    assert enumerate_cells(ds).size == expected_cell_count(16, 1)


def test_witness_interior_and_margin(dec3, ds3):
    for cell in dec3.cells:
        vals = np.array(cell.signs) * (ds3.lifted @ cell.witness)
        assert np.min(vals) >= cell.margin - 1e-9
        assert cell.margin > 0


GENERIC_CASES = ["d1", "d2", "d3", "d3 n2", "one point"]
CASES = GENERIC_CASES + ["duplicate", "collinear d2", "coplanar d3",
                         "all collinear d2", "grid 3x3"]


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
        # the lifted rows span a plane of R^3: the cells share a lineality
        # space
        "all collinear d2": lambda: Dataset(
            np.array([[x, 0.5 - x] for x in (-1.0, -0.3, 0.2, 0.5, 0.9, 1.7)]),
            np.zeros(6)),
        "grid 3x3": lambda: Dataset(_grid(3), np.zeros(9)),
    }[case]()


def _grid(k):
    """The k x k integer lattice, rows (x, y) in y-major order."""
    return np.array([[x, y] for y in range(k) for x in range(k)], dtype=float)


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
    # one stack, in the cells' order: an LP's pivots do not depend on the
    # other LPs of its batch
    signs = np.array([cell.signs for cell in dec.cells], dtype=float)
    t, theta, pivots = max_margin(ds.lifted[keep], signs[:, keep])
    assert [cell.margin for cell in dec.cells] == t.tolist()
    assert np.array_equal([cell.witness for cell in dec.cells], theta)
    assert dec.generic == (case in GENERIC_CASES)
    # one LP per cell, so the cells' LPs are all the pivots
    assert dec.margin_lps == dec.size
    assert dec.margin_pivots == pivots.sum()


@pytest.mark.parametrize("case", CASES)
def test_witness_side_skip_keeps_every_pattern(case):
    # the patterns next to the vertex rays admit the same cells, in the same
    # order, as insertion that solves both children's LPs at every level
    ds = _case_dataset(case)
    dec = _enumerate_quietly(ds)
    assert [c.signs for c in dec.cells] == enumerate_patterns_reference(
        ds.lifted, FEASIBILITY_EPS)


def _lattices():
    """20 small random subsets of integer lattices at d = 2 and 3."""
    rng = np.random.default_rng(5)
    return [Dataset(rng.integers(0, side, size=(n, d)).astype(float),
                    np.zeros(n))
            for d, side in ((2, 3), (2, 4), (3, 2), (3, 3))
            for n in (4, 5, 6, 7, 8)]


def _jittered_grid(seed):
    """The 3 x 3 lattice jittered by 1e-8."""
    points = _grid(3) + 1e-8 * np.random.default_rng(seed).normal(size=(9, 2))
    return Dataset(points, np.zeros(9))


def _bench_cells_inputs():
    """The inputs of the benchmark's `cells` workload (CELLS_MIX and
    CELLS_MIN_SV in bench/workloads.py), drawn by bench/checks.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return [Dataset(*checks.generic_dataset(np.random.default_rng(10 * n + d),
                                            n, d, 0.05))
            for d, n in ((1, 16), (2, 8), (3, 8))]


def test_integer_lattices_match_reference():
    # small lattices hold many points on one hyperplane and many hyperplanes
    # through one ray, and repeat points
    for ds in _lattices():
        dec = _enumerate_quietly(ds)
        assert [c.signs for c in dec.cells] == \
            enumerate_patterns_reference(ds.lifted, FEASIBILITY_EPS)
        assert dec.margin_lps == dec.size


def test_every_witness_holds_its_pattern():
    # on a lattice jittered by 1e-8, some margin LPs report t above
    # FEASIBILITY_EPS with a witness that breaks its pattern by up to 3e-6;
    # those candidates are not cells
    ds = _jittered_grid(0)
    dec = enumerate_cells(ds)
    for cell in dec.cells:
        held = np.min(np.array(cell.signs) * (ds.lifted @ cell.witness))
        assert held > FEASIBILITY_EPS
    assert (dec.size, dec.margin_lps) == (60, 74)


MARGIN_DATASETS = {
    "bench": _bench_cells_inputs,
    "cases": lambda: [_case_dataset(case) for case in CASES],
    "lattices": _lattices,
    "jittered grid": lambda: [_jittered_grid(0)],
}


@pytest.mark.parametrize("name", MARGIN_DATASETS)
def test_batched_margins_match_scalar_reference(name, monkeypatch):
    # every margin LP the enumeration solves in a batch gives the t, theta
    # (signed zeros included) and pivot count of the scalar loop solving it
    # alone, and is optimal there too (max_margin raises otherwise)
    calls = []

    def record(rows, signs):
        calls.append((rows, signs, max_margin(rows, signs)))
        return calls[-1][2]

    monkeypatch.setattr(arrangement, "max_margin", record)
    for ds in MARGIN_DATASETS[name]():
        _enumerate_quietly(ds)
    monkeypatch.setattr(_simplex, "_bland", bland_stack_reference)
    lps = 0
    for rows, signs, out in calls:
        alone = [max_margin(rows, signs[i : i + 1]) for i in range(len(signs))]
        for got, ref in zip(out, map(np.concatenate, zip(*alone))):
            assert same_bits(got, ref)
        lps += len(signs)
    assert lps > 0


# seed: (pivots, pattern) of the one candidate of the 74 whose margin LP
# roundoff drives to an unbounded column
UNBOUNDED = {
    13: (13, [-1, -1, 1, -1, -1, 1, -1, -1, 1]),
    23: (10, [1, 1, 1, -1, -1, -1, -1, -1, -1]),
    114: (17, [-1, -1, 1, -1, -1, 1, -1, -1, 1]),
}


@pytest.mark.parametrize("seed", UNBOUNDED)
def test_unbounded_margin_lp_named_alike_by_both_loops(seed, monkeypatch):
    ds = _jittered_grid(seed)
    pivots, pattern = UNBOUNDED[seed]
    expected = (f"margin subproblem returned unbounded after {pivots} "
                f"pivots on pattern {pattern}")
    with pytest.raises(NumericalError) as batched:
        enumerate_cells(ds)
    assert str(batched.value) == expected
    monkeypatch.setattr(arrangement, "MARGIN_BATCH", 1)
    monkeypatch.setattr(_simplex, "_bland", bland_stack_reference)
    with pytest.raises(NumericalError) as alone:
        enumerate_cells(ds)
    assert str(alone.value) == expected


@pytest.mark.parametrize("cap", [1, 7])
def test_margin_batch_changes_nothing(cap, monkeypatch):
    datasets = (_bench_cells_inputs() + [_jittered_grid(0)]
                + [_case_dataset(case) for case in CASES])
    before = [_enumerate_quietly(ds) for ds in datasets]
    monkeypatch.setattr(arrangement, "MARGIN_BATCH", cap)
    for ds, ref in zip(datasets, before):
        dec = _enumerate_quietly(ds)
        assert [c.signs for c in dec.cells] == [c.signs for c in ref.cells]
        for cell, old in zip(dec.cells, ref.cells):
            assert same_bits(cell.witness, old.witness)
            assert same_bits(np.float64(cell.margin), np.float64(old.margin))
        assert (dec.generic, dec.margin_lps, dec.margin_pivots) == \
            (ref.generic, ref.margin_lps, ref.margin_pivots)
        assert decomposition_to_json(dec) == decomposition_to_json(ref)


def test_generic_means_cover_count():
    # the first two lifted rows are 5e-11 rad apart and merge as one
    # hyperplane, so the four points give 6 cells, not Cover's 8
    ds = Dataset(np.array([[1000.0], [1000.00005], [0.3], [-2.0]]),
                 np.zeros(4))
    with pytest.warns(UserWarning, match="1 duplicate"):
        dec = enumerate_cells(ds)
    assert dec.size == 6
    assert not dec.generic


# (1, 16), (2, 8) and (3, 8) are the sizes of the benchmark's `cells` inputs
@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 8), (1, 2), (2, 5)])
def test_margin_lp_count(d, n):
    # generic data takes one LP per cell, the candidates next to the vertex
    # rays
    ds = random_generic_dataset(np.random.default_rng([d, n]), n, d)
    assert enumerate_cells(ds).margin_lps == expected_cell_count(n, d)


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
