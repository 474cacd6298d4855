import numpy as np
import pytest

import oracles
from oracles import lp_min_l1_two_phase, margin_lp_two_phase, simplex
from relucells._simplex import PIVOT_EPS, lp_min_l1, max_margin
from relucells.errors import InfeasibleError

# Sign patterns of the two 19 x 25 two-phase margin LPs (15 lifted rows of
# the d = 1 dataset drawn from default_rng([32, 9])) whose phase-1 cost row
# drifts far enough for phase 1 to report an unbounded ray.
DRIFTED_PHASE1 = [
    (1, 1, 1, 1, 1, 1, 1, 1, -1, 1, -1, -1, 1, -1, -1),
    (-1, -1, -1, -1, -1, -1, -1, -1, 1, -1, 1, 1, -1, 1, 1),
]


def test_simplex_basic_lp():
    # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x2 + t = 3
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 3.0])
    res = simplex(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-7.0)
    assert res.x[:2] == pytest.approx([1.0, 3.0])


def test_simplex_infeasible():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = simplex(np.zeros(2), A, b)
    assert res.status == "infeasible"


def test_simplex_unbounded():
    # min -x s.t. x - s = 0 (x free to grow)
    res = simplex(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
    assert res.status == "unbounded"


def test_simplex_negative_rhs():
    # rows with negative b are flipped internally
    res = simplex(
        np.array([1.0, 1.0]), np.array([[-1.0, 0.0], [0.0, 1.0]]),
        np.array([-2.0, 1.0]),
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([2.0, 1.0])


def _within(A, y, z, eps):
    # the dual's reduced costs are optimal to the pivot tolerance
    if eps > 0.0:
        assert np.max(np.abs(A @ z - y)) <= eps + PIVOT_EPS


# the exact program and a tolerant one whose eps keeps the assertions
EPS = (0.0, 1e-9)


def test_lp_min_l1_identity():
    for eps in EPS:
        z, obj = lp_min_l1(np.eye(2), np.array([2.0, -3.0]), eps)
        assert z == pytest.approx([2.0, -3.0])
        assert obj == pytest.approx(5.0)
        _within(np.eye(2), np.array([2.0, -3.0]), z, eps)


def test_lp_min_l1_prefers_sparse_column():
    # y reachable via one column of cost 1 or two of cost 2
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    y = np.array([1.0, 1.0])
    for eps in EPS:
        z, obj = lp_min_l1(A, y, eps)
        assert obj == pytest.approx(1.0)
        assert z == pytest.approx([1.0, 0.0, 0.0])
        _within(A, y, z, eps)


def test_lp_min_l1_infeasible():
    for eps in EPS:
        with pytest.raises(InfeasibleError):
            lp_min_l1(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]), eps)


def test_lp_min_l1_basic_support_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, s = 3, 12
        A = np.abs(rng.normal(size=(n, s)))
        y = A @ np.abs(rng.normal(size=s))
        for eps in EPS:
            z, _ = lp_min_l1(A, y, eps)
            assert np.sum(np.abs(z) > 1e-9) <= n
            assert A @ z == pytest.approx(y, abs=1e-8)
            _within(A, y, z, eps)


def test_lp_min_l1_tolerates_near_duplicate_columns():
    # two columns 1e-10 apart and targets 1e-9 off their common line: the
    # exact program must pay 19 to absorb the gap, the tolerant one pays 1
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    y = np.array([1.0, 1.0 + 1e-9])
    eps = 1e-7 * (1.0 + np.max(np.abs(y)))
    z, obj = lp_min_l1(A, y, eps)
    assert obj == pytest.approx(1.0, rel=1e-6)
    assert np.sum(np.abs(z)) == pytest.approx(1.0, rel=1e-6)
    assert np.sum(np.abs(z) > 1e-9) <= 2
    _within(A, y, z, eps)
    ref = lp_min_l1_two_phase(A, y)
    assert ref.status == "optimal"
    assert ref.objective == pytest.approx(19.0, rel=1e-6)


def test_max_margin_single_row():
    t, theta, _ = max_margin(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert t == pytest.approx(2.0)
    assert theta == pytest.approx([1.0, 1.0])


def test_max_margin_infeasible_signs():
    # opposite signs on the same hyperplane leave only t = 0
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    t, _, _ = max_margin(rows, np.array([1.0, -1.0]))
    assert t == pytest.approx(0.0, abs=1e-9)


def test_max_margin_box_bound():
    # the unit infinity-norm box caps the margin of one hyperplane at 1
    t, theta, _ = max_margin(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert t == pytest.approx(1.0)
    assert np.max(np.abs(theta)) <= 1.0 + 1e-12


@pytest.mark.parametrize("pattern", DRIFTED_PHASE1)
def test_simplex_rebuilds_drifted_phase1_costs(pattern, monkeypatch):
    rng = np.random.default_rng([32, 9])
    points = rng.normal(size=(16, 1))[:15]
    rows = np.hstack([points, np.ones((15, 1))])
    c, A, b = margin_lp_two_phase(rows, pattern)
    assert A.shape == (19, 25)
    builds = []
    build = oracles._phase1_costs
    monkeypatch.setattr(oracles, "_phase1_costs",
                        lambda *a: builds.append(1) or build(*a))
    res = simplex(c, A, b)
    # built once at the start, rebuilt once when phase 1 drifted
    assert len(builds) == 2
    assert res.status == "optimal"
    # both patterns are cells; the drifted tableau's vertex is not accurate
    # enough to compare its margin with max_margin's beyond that
    assert -res.objective > 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_max_margin_matches_two_phase_oracle(d):
    # the slack-basis start reaches the optimum of the two-phase build, on
    # patterns that are cells (t > 0) and patterns that are not (t = 0)
    rng = np.random.default_rng([40, d])
    kinds = set()
    for _ in range(60):
        m = int(rng.integers(1, 4 * (d + 1)))
        rows = np.hstack([rng.normal(size=(m, d)), np.ones((m, 1))])
        signs = rng.choice([-1.0, 1.0], size=m)
        t, theta, _ = max_margin(rows, signs)
        ref = simplex(*margin_lp_two_phase(rows, signs))
        assert ref.status == "optimal"
        assert t == pytest.approx(-ref.objective, abs=1e-12)
        assert np.max(np.abs(theta)) <= 1.0 + 1e-14
        assert np.min(signs * (rows @ theta)) >= t - 1e-12
        kinds.add(bool(t > 1e-9))
    assert kinds == {True, False}
