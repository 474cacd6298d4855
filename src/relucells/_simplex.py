"""Dense primal simplex with Bland's rule.

Shared kernel for the l1 re-check of the solver and for the cell-margin
feasibility subproblems of the arrangement builder. Both LPs are built in
canonical form,

    min c^T x   s.t.   T x = rhs,  x >= 0,  rhs >= 0,

where every row has its own slack column, so the all-slack basis is
feasible (the margin LP's theta = 0, t = 0; the l1 dual's lam = 0) and one
phase of Bland pivots runs from it on the original cost. Bland's rule
(smallest eligible index enters, smallest-index tie break on the ratio
test) guarantees termination without cycling, also from a degenerate slack
basis (Bland 1977). Instances here are small and dense; no effort is made
to exploit sparsity.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleError, NumericalError

PIVOT_EPS = 1e-10
# pivot budget of one LP
MAX_PIVOTS = 100_000


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    # rows with a zero in the pivot column are left exactly as they are
    rows = np.flatnonzero(np.abs(T[:, col]) > 0.0)
    rows = rows[rows != row]
    T[rows] -= T[rows, col][:, None] * T[row]
    basis[row] = col


def _run_phase(T: np.ndarray, basis: list[int], ncols: int) -> tuple[str, int]:
    """Iterate Bland pivots on tableau T (objective in last row) in place.

    Returns the final status and the number of pivots made.
    """
    for pivots in range(MAX_PIVOTS):
        obj = T[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if obj[j] < -PIVOT_EPS:
                entering = j
                break
        if entering < 0:
            return "optimal", pivots
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
            return "unbounded", pivots
        _pivot(T, basis, leaving, entering)
    raise RuntimeError("simplex exceeded pivot budget")


def _basic_solution(T: np.ndarray, basis: list[int], nvar: int) -> np.ndarray:
    """Read the basic solution of a tableau over its first nvar columns."""
    x = np.zeros(nvar)
    for i, bi in enumerate(basis):
        if bi < nvar:
            x[bi] = T[i, -1]
    return x


def lp_min_l1(A: np.ndarray, y: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """min ||z||_1 s.t. ||A z - y||_inf <= eps, through its dual

        max y.lam - eps ||lam||_1   s.t.   -1 <= A^T lam <= 1.

    lam = p - q with p, q >= 0, and lam = 0 is feasible, so the tableau is
    built in canonical form around that point: the rows A^T lam + s+ = 1 and
    -A^T lam + s- = 1 each have their own slack. Bland pivots start from
    that all-slack basis on the original cost, with no phase 1. z is read
    from the reduced costs of the two slack blocks, z = r(s+) - r(s-). At
    most n = len(y) of p, q are basic, so at most n slacks are nonbasic and
    z has at most n nonzeros.

    Returns (z, y.lam). lam is feasible for the dual of the exact program
    (eps = 0), so y.lam bounds that program's optimum from below; it
    exceeds ||z||_1 by eps ||lam||_1. Raises InfeasibleError when the dual
    is unbounded, that is when no z reaches y within eps.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n, s = A.shape
    # variables: p(n), q(n), slack+(s), slack-(s)
    nvar = 2 * n + 2 * s
    T = np.zeros((2 * s + 1, nvar + 1))
    T[:s, :n] = A.T
    T[:s, n : 2 * n] = -A.T
    T[s:-1, :n] = -A.T
    T[s:-1, n : 2 * n] = A.T
    T[:-1, 2 * n : nvar] = np.eye(2 * s)
    T[:-1, -1] = 1.0
    # min (eps - y).p + (eps + y).q; zero on the slacks, so already reduced
    T[-1, :n] = eps - y
    T[-1, n : 2 * n] = eps + y
    basis = list(range(2 * n, nvar))
    if _run_phase(T, basis, nvar)[0] == "unbounded":
        raise InfeasibleError("l1 program: no z reaches the targets within eps")
    x = _basic_solution(T, basis, nvar)
    z = T[-1, 2 * n : 2 * n + s] - T[-1, 2 * n + s : nvar]
    return z, float(y @ (x[:n] - x[n : 2 * n]))


def max_margin(
    rows: np.ndarray, signs: np.ndarray
) -> tuple[float, np.ndarray, int]:
    """max t s.t. signs[i] * <theta, rows[i]> >= t, ||theta||_inf <= 1.

    theta is free; theta = 0, t = 0 is feasible, and the tableau is built in
    canonical form around that point: every row has its own slack with
    coefficient +1 and a right-hand side of 0 (margin rows) or 1 (box rows).
    Bland pivots start from that all-slack basis on the original cost, with
    no phase 1. Returns (t*, theta*, pivots). Used as the cell-margin
    feasibility subproblem: a sign pattern carves a full-dimensional cone iff
    t* > 0.
    """
    rows = np.asarray(rows, dtype=float)
    signs = np.asarray(signs, dtype=float)
    m, k = rows.shape
    # variables: p(k), q(k), t+, t-, slack_margin(m), slack_box(2k), with
    # theta = p - q and t = t+ - t-
    nvar = 2 * k + 2 + m + 2 * k
    T = np.zeros((m + 2 * k + 1, nvar + 1))
    S = signs[:, None] * rows
    # t - signs[i] * <theta, rows[i]> + slack_i = 0
    T[:m, :k] = -S
    T[:m, k : 2 * k] = S
    T[:m, 2 * k] = 1.0
    T[:m, 2 * k + 1] = -1.0
    # p - q + slack = 1 and q - p + slack = 1
    T[m : m + k, :k] = np.eye(k)
    T[m : m + k, k : 2 * k] = -np.eye(k)
    T[m + k : -1, :k] = -np.eye(k)
    T[m + k : -1, k : 2 * k] = np.eye(k)
    T[:-1, 2 * k + 2 : nvar] = np.eye(m + 2 * k)
    T[m:-1, -1] = 1.0
    # min t- - t+; zero on the slacks, so already reduced for their basis
    c = np.zeros(nvar)
    c[2 * k] = -1.0
    c[2 * k + 1] = 1.0
    T[-1, :nvar] = c
    basis = list(range(2 * k + 2, nvar))
    status, pivots = _run_phase(T, basis, nvar)
    if status != "optimal":  # cannot happen: feasible and bounded
        raise NumericalError(f"margin subproblem returned {status}")
    x = _basic_solution(T, basis, nvar)
    return -float(c @ x), x[:k] - x[k : 2 * k], pivots
