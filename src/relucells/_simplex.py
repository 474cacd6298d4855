"""Dense primal simplex with Bland's rule, over a stack of tableaux.

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

One pivot loop, `_bland`, serves both LPs. It pivots a (B, R, C) stack of
tableaux in lockstep: each live LP takes its own entering column and
leaving row, all of them pivot in one broadcast update, and an LP leaves
the stack when it is optimal or unbounded. Each LP makes exactly the
arithmetic of a loop that solves it alone. `max_margin` solves one margin
LP per sign pattern of a (B, m) stack; its caller bounds B (and so the
stack's memory) by `arrangement.MARGIN_BATCH`. `lp_min_l1` is a stack of
one.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleError, NumericalError

PIVOT_EPS = 1e-10
# pivot budget of one LP
MAX_PIVOTS = 100_000


def _scan(rhs: np.ndarray, col: np.ndarray, basis: np.ndarray) -> int:
    """Bland's ratio test as a scan over the rows in order: the smallest
    ratio wins, and ratios within PIVOT_EPS of the best so far tie, broken
    by the smaller basis index. Returns -1 when no row bounds the step."""
    best_ratio = np.inf
    leaving = -1
    for i in range(col.shape[0]):
        a = col[i]
        if a > PIVOT_EPS:
            ratio = rhs[i] / a
            if ratio < best_ratio - PIVOT_EPS or (
                abs(ratio - best_ratio) <= PIVOT_EPS
                and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
    return leaving


def _bland(T: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iterate Bland pivots on every tableau of the stack T (B, R, C) in
    place: objective in the last row, right-hand side in the last column,
    basis (B, R-1) the basic column of each row.

    The live LPs pivot in lockstep on a compacted copy of their tableaux,
    and each one is written back to T when it leaves at optimality or at an
    unbounded column. The ratio test is vectorised where the smallest
    ratios are exactly equal and every other ratio lies more than PIVOT_EPS
    above them, which is where the scan's answer is the smallest basis
    index among them; other LPs take the scan. Returns (pivots, unbounded)
    per LP.
    """
    pivots = np.zeros(T.shape[0], dtype=np.int64)
    unbounded = np.zeros(T.shape[0], dtype=bool)
    live = np.arange(T.shape[0])
    W, Wb = T, basis
    for made in range(MAX_PIVOTS):
        neg = W[:, -1, :-1] < -PIVOT_EPS
        going = neg.any(axis=1)
        col = np.argmax(neg, axis=1)
        lps = np.arange(live.size)
        rhs, entering = W[:, :-1, -1], W[lps, :-1, col]
        ratio = np.divide(rhs, entering, out=np.full(rhs.shape, np.inf),
                          where=entering > PIVOT_EPS)
        low = ratio.min(axis=1)
        tie = ratio == low[:, None]
        row = np.argmin(np.where(tie, Wb, T.shape[2]), axis=1)
        up = np.where(tie, np.inf, ratio).min(axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf: no row is eligible
            clear = (low < up - PIVOT_EPS) & (up - low > PIVOT_EPS)
        for i in np.flatnonzero(going & ~clear):
            row[i] = _scan(rhs[i], entering[i], Wb[i])
        stuck = going & (row < 0)
        done = ~going | stuck
        if done.any():
            pivots[live[done]] = made
            unbounded[live[stuck]] = True
            if W is not T:
                T[live[done]], basis[live[done]] = W[done], Wb[done]
            keep = ~done
            live, row, col = live[keep], row[keep], col[keep]
            if live.size == 0:
                return pivots, unbounded
            W, Wb, lps = W[keep], Wb[keep], np.arange(live.size)
        piv = W[lps, row]
        piv /= piv[lps, col][:, None]
        factor = W[lps, :, col]
        factor[lps, row] = 0.0
        # rows with a zero in the pivot column are left exactly as they are
        np.subtract(W, factor[..., None] * piv[:, None], out=W,
                    where=(np.abs(factor) > 0.0)[..., None])
        W[lps, row] = piv
        Wb[lps, row] = col
    raise RuntimeError("simplex exceeded pivot budget")


def _basic_solution(T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Read the basic solution of each tableau of a stack, (B, C-1)."""
    x = np.zeros((T.shape[0], T.shape[2] - 1))
    np.put_along_axis(x, basis, T[:, :-1, -1], axis=1)
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
    basis = np.arange(2 * n, nvar)[None]
    if _bland(T[None], basis)[1][0]:
        raise InfeasibleError("l1 program: no z reaches the targets within eps")
    x = _basic_solution(T[None], basis)[0]
    z = T[-1, 2 * n : 2 * n + s] - T[-1, 2 * n + s : nvar]
    return z, float(y @ (x[:n] - x[n : 2 * n]))


def max_margin(
    rows: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max t s.t. signs[b, i] * <theta, rows[i]> >= t, ||theta||_inf <= 1,
    for each pattern b of the (B, m) stack signs.

    theta is free; theta = 0, t = 0 is feasible, and each tableau is built
    in canonical form around that point: every row has its own slack with
    coefficient +1 and a right-hand side of 0 (margin rows) or 1 (box rows).
    Bland pivots start from that all-slack basis on the original cost, with
    no phase 1. Returns the arrays (t* (B,), theta* (B, k), pivots (B,)).
    Used as the cell-margin feasibility subproblem: a sign pattern carves a
    full-dimensional cone iff t* > 0. Raises NumericalError, naming the
    first such pattern, when roundoff makes an LP report an unbounded ray.
    """
    rows = np.asarray(rows, dtype=float)
    signs = np.asarray(signs, dtype=float)
    m, k = rows.shape
    # variables: p(k), q(k), t+, t-, slack_margin(m), slack_box(2k), with
    # theta = p - q and t = t+ - t-
    nvar = 2 * k + 2 + m + 2 * k
    T = np.zeros((signs.shape[0], m + 2 * k + 1, nvar + 1))
    S = signs[:, :, None] * rows
    # t - signs[i] * <theta, rows[i]> + slack_i = 0
    T[:, :m, :k] = -S
    T[:, :m, k : 2 * k] = S
    T[:, :m, 2 * k] = 1.0
    T[:, :m, 2 * k + 1] = -1.0
    # p - q + slack = 1 and q - p + slack = 1
    T[:, m : m + k, :k] = np.eye(k)
    T[:, m : m + k, k : 2 * k] = -np.eye(k)
    T[:, m + k : -1, :k] = -np.eye(k)
    T[:, m + k : -1, k : 2 * k] = np.eye(k)
    T[:, :-1, 2 * k + 2 : nvar] = np.eye(m + 2 * k)
    T[:, m:-1, -1] = 1.0
    # min t- - t+; zero on the slacks, so already reduced for their basis
    c = np.zeros(nvar)
    c[2 * k] = -1.0
    c[2 * k + 1] = 1.0
    T[:, -1, :nvar] = c
    basis = np.tile(np.arange(2 * k + 2, nvar), (signs.shape[0], 1))
    pivots, unbounded = _bland(T, basis)
    if unbounded.any():  # cannot happen in exact arithmetic: feasible, bounded
        b = int(np.argmax(unbounded))
        raise NumericalError(
            f"margin subproblem returned unbounded after {pivots[b]} pivots "
            f"on pattern {signs[b].astype(int).tolist()}"
        )
    x = _basic_solution(T, basis)
    return -(x @ c), x[:, :k] - x[:, k : 2 * k], pivots
