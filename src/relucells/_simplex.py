"""Dense two-phase primal simplex with Bland's rule.

Shared kernel for the l1 linear program and for the cell-margin
feasibility subproblems of the arrangement builder. Standard form:

    min c^T x   s.t.   A x = b,  x >= 0.

Bland's rule (smallest eligible index enters, smallest-index tie break on
the ratio test) guarantees termination without cycling. Instances here are
small and dense; no effort is made to exploit sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalError

PIVOT_EPS = 1e-10


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    objective: float
    basis: list[int]


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    # rows with a zero in the pivot column are left exactly as they are
    rows = np.flatnonzero(np.abs(T[:, col]) > 0.0)
    rows = rows[rows != row]
    T[rows] -= T[rows, col][:, None] * T[row]
    basis[row] = col


def _phase1_costs(T: np.ndarray, basis: list[int], n: int) -> None:
    """Phase-1 reduced-cost row (sum of artificials) for the current basis."""
    T[-1] = 0.0
    T[-1, n:-1] = 1.0
    for i, bi in enumerate(basis):
        if bi >= n:
            T[-1] -= T[i]


def _run_phase(T: np.ndarray, basis: list[int], ncols: int, max_pivots: int) -> str:
    """Iterate Bland pivots on tableau T (objective in last row) in place."""
    for _ in range(max_pivots):
        obj = T[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if obj[j] < -PIVOT_EPS:
                entering = j
                break
        if entering < 0:
            return "optimal"
        # ratio test, Bland tie break on basis index
        best_ratio = np.inf
        leaving = -1
        for i in range(T.shape[0] - 1):
            a = T[i, entering]
            if a > PIVOT_EPS:
                ratio = T[i, -1] / a
                if ratio < best_ratio - PIVOT_EPS or (
                    abs(ratio - best_ratio) <= PIVOT_EPS
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(T, basis, leaving, entering)
    raise RuntimeError("simplex exceeded pivot budget")


def simplex(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    max_pivots: int = 100_000,
) -> SimplexResult:
    """Solve min c^T x s.t. Ax = b, x >= 0 by two-phase primal simplex."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial variables form the initial basis.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    _phase1_costs(T, basis, n)
    status = _run_phase(T, basis, n + m, max_pivots)
    if status == "unbounded":
        # phase 1 is bounded below by 0, so its cost row has drifted from
        # the tableau: rebuild it from the current basis and resume
        _phase1_costs(T, basis, n)
        status = _run_phase(T, basis, n + m, max_pivots)
        if status == "unbounded":
            raise NumericalError("simplex phase 1 reported an unbounded ray")
    if status != "optimal" or T[-1, -1] < -1e-7:
        return SimplexResult("infeasible", np.zeros(n), np.inf, basis)

    # Drive lingering artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if abs(T[i, j]) > PIVOT_EPS:
                    _pivot(T, basis, i, j)
                    break

    # Phase 2 on the original objective; redundant rows (artificial basics
    # with zero value) are kept but can never pivot on original columns.
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if basis[i] < n:
            T[-1] -= T[-1, basis[i]] * T[i]
    T[:, n : n + m] = 0.0  # freeze artificial columns
    status = _run_phase(T, basis, n, max_pivots)
    if status == "unbounded":
        return SimplexResult("unbounded", np.zeros(n), -np.inf, basis)

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i, -1]
    return SimplexResult("optimal", x, float(c @ x), basis)


def lp_min_l1(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """min ||z||_1 s.t. Az = y via the split z = z+ - z-, z± >= 0.

    Returns a basic optimal solution, hence with at most n = len(y)
    nonzero entries. Raises InfeasibleError when y is outside range(A).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n, s = A.shape
    c = np.ones(2 * s)
    res = simplex(c, np.hstack([A, -A]), y)
    if res.status == "infeasible":
        raise InfeasibleError("l1 program: targets are not in the range of A")
    z = res.x[:s] - res.x[s:]
    return z, res.objective


def max_margin(
    rows: np.ndarray, signs: np.ndarray, box: float = 1.0
) -> tuple[float, np.ndarray]:
    """max t s.t. signs[i] * <theta, rows[i]> >= t, ||theta||_inf <= box.

    theta is free; always feasible (theta = 0, t = 0). Returns (t*, theta*).
    Used as the cell-margin feasibility subproblem: a sign pattern carves a
    full-dimensional cone iff t* > 0.
    """
    rows = np.asarray(rows, dtype=float)
    signs = np.asarray(signs, dtype=float)
    m, k = rows.shape
    # variables: p(k), q(k), t+, t-, slack_margin(m), slack_box(2k)
    nvar = 2 * k + 2 + m + 2 * k
    A = np.zeros((m + 2 * k, nvar))
    b = np.zeros(m + 2 * k)
    S = signs[:, None] * rows
    A[:m, :k] = S
    A[:m, k : 2 * k] = -S
    A[:m, 2 * k] = -1.0
    A[:m, 2 * k + 1] = 1.0
    A[:m, 2 * k + 2 : 2 * k + 2 + m] = -np.eye(m)
    # p - q <= box and q - p <= box
    A[m : m + k, :k] = np.eye(k)
    A[m : m + k, k : 2 * k] = -np.eye(k)
    A[m : m + k, 2 * k + 2 + m : 2 * k + 2 + m + k] = np.eye(k)
    b[m : m + k] = box
    A[m + k :, :k] = -np.eye(k)
    A[m + k :, k : 2 * k] = np.eye(k)
    A[m + k :, 2 * k + 2 + m + k :] = np.eye(k)
    b[m + k :] = box
    c = np.zeros(nvar)
    c[2 * k] = -1.0
    c[2 * k + 1] = 1.0
    res = simplex(c, A, b)
    if res.status != "optimal":  # cannot happen: feasible and bounded
        raise NumericalError(f"margin subproblem returned {res.status}")
    theta = res.x[:k] - res.x[k : 2 * k]
    return -res.objective, theta
