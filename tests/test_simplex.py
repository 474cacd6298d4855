import numpy as np
import pytest

import oracles
from conftest import same_bits
from oracles import (
    bland_stack_reference, lp_min_l1_two_phase, margin_lp_two_phase, simplex,
)
from relucells import _simplex
from relucells._simplex import PIVOT_EPS, _bland, lp_min_l1, max_margin
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


def _l1_instances():
    """(A, y, eps) of the lp_min_l1 tests above."""
    rng = np.random.default_rng(0)
    sparse = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    inst = [(np.eye(2), np.array([2.0, -3.0])), (sparse, np.ones(2)),
            (np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))]
    for _ in range(20):
        A = np.abs(rng.normal(size=(3, 12)))
        inst.append((A, A @ np.abs(rng.normal(size=12))))
    out = [(A, y, eps) for A, y in inst for eps in EPS]
    y = np.array([1.0, 1.0 + 1e-9])
    out.append((np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]]), y,
                1e-7 * (1.0 + np.max(np.abs(y)))))
    return out


def test_lp_min_l1_matches_scalar_reference(monkeypatch):
    # the lockstep loop pivots a stack of one exactly as the scalar loop
    # pivots the tableau alone
    def solve(A, y, eps):
        try:
            return lp_min_l1(A, y, eps)
        except InfeasibleError:
            return None

    batched = [solve(*inst) for inst in _l1_instances()]
    monkeypatch.setattr(_simplex, "_bland", bland_stack_reference)
    reference = [solve(*inst) for inst in _l1_instances()]
    assert sum(r is None for r in reference) == 2
    for got, ref in zip(batched, reference):
        assert (got is None) == (ref is None)
        if ref is not None:
            assert same_bits(got[0], ref[0])
            assert same_bits(np.float64(got[1]), np.float64(ref[1]))


def _canonical(A, b, c, slack_order):
    """Tableau of min c.x s.t. A x + s = b, x, s >= 0, row i's slack in
    column len(c) + slack_order[i], and its slack basis."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[np.arange(m), n + np.asarray(slack_order)] = 1.0
    T[:m, -1] = b
    T[-1, :n] = c
    return T, n + np.asarray(slack_order)


def test_bland_matches_scalar_reference_on_hand_built_lps(monkeypatch):
    # six rows and five variables each. In the first LP the first variable
    # enters with ratios 1 + 1.5e-10, 1 + 0.7e-10 and 1, pairwise within
    # PIVOT_EPS but not equal, so the LP takes the scan, which keeps row 1
    # (it ties row 0 with a smaller basis index, and row 2 ties it with a
    # larger one), not the smallest ratio
    first = np.zeros((6, 5))
    first[:3, 0] = 1.0
    near = (first, np.r_[1.0 + np.array([1.5e-10, 0.7e-10, 0.0]), np.ones(3)],
            np.r_[-1.0, np.zeros(4)], [1, 0, 2, 3, 4, 5])
    # exact ties on zero right-hand sides, as on the margin rows
    ties = np.zeros((6, 5))
    ties[:3, :2] = [[1.0, 2.0], [3.0, 1.0], [1.0, 1.0]]
    tied = (ties, np.r_[np.zeros(3), np.ones(3)],
            np.r_[-1.0, -1.0, np.zeros(3)], [2, 1, 0, 3, 4, 5])
    # a column with no positive entry
    loose = (-first, np.ones(6), np.r_[-1.0, np.zeros(4)], np.arange(6))
    # a -0.0 in a row with a zero in the pivot column keeps its sign: the
    # pivot row's -1 would make (-0.0) - 0 * (-1) = +0.0
    zeros = np.zeros((6, 5))
    zeros[0, :2] = [1.0, -1.0]
    zeros[3, 1] = -0.0
    signed = (zeros, np.ones(6), np.r_[-1.0, 5.0, np.zeros(3)], np.arange(6))
    rng = np.random.default_rng(3)
    dense = [(np.abs(rng.normal(size=(6, 5))), np.abs(rng.normal(size=6)),
              rng.normal(size=5), rng.permutation(6)) for _ in range(4)]
    tableaux = [_canonical(*lp) for lp in [near, tied, loose, signed, *dense]]
    stack = np.array([T for T, _ in tableaux])
    basis = np.array([b for _, b in tableaux])
    ref_T, ref_basis = stack.copy(), basis.copy()
    scans = []
    scan = _simplex._scan

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(_simplex, "_scan", counted)
    pivots, unbounded = _bland(stack, basis)
    assert scans
    ref_pivots, ref_unbounded = bland_stack_reference(ref_T, ref_basis)
    assert same_bits(stack, ref_T)
    assert np.array_equal(basis, ref_basis)
    assert np.array_equal(pivots, ref_pivots)
    assert np.array_equal(unbounded, ref_unbounded)
    assert unbounded.tolist() == [False, False, True] + [False] * 5
    assert np.signbit(stack[3, 3, 1])
    assert basis[0, 1] == 0 and pivots[0] == 1
    assert max(pivots) > 2


def _margin(rows, signs):
    t, theta, pivots = max_margin(rows, np.asarray(signs, dtype=float)[None])
    return t[0], theta[0], pivots[0]


def test_max_margin_single_row():
    t, theta, _ = _margin(np.array([[1.0, 1.0]]), [1.0])
    assert t == pytest.approx(2.0)
    assert theta == pytest.approx([1.0, 1.0])


def test_max_margin_infeasible_signs():
    # opposite signs on the same hyperplane leave only t = 0
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    t, _, _ = _margin(rows, [1.0, -1.0])
    assert t == pytest.approx(0.0, abs=1e-9)


def test_max_margin_box_bound():
    # the unit infinity-norm box caps the margin of one hyperplane at 1
    t, theta, _ = _margin(np.array([[1.0, 0.0]]), [1.0])
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
        t, theta, _ = _margin(rows, signs)
        ref = simplex(*margin_lp_two_phase(rows, signs))
        assert ref.status == "optimal"
        assert t == pytest.approx(-ref.objective, abs=1e-12)
        assert np.max(np.abs(theta)) <= 1.0 + 1e-14
        assert np.min(signs * (rows @ theta)) >= t - 1e-12
        kinds.add(bool(t > 1e-9))
    assert kinds == {True, False}
