"""Independent brute-force oracles used by the test suite.

Everything here is written against the raw problem statements with its own
relu/weight arithmetic, so package bugs cannot cancel out. The brute-force
objective oracles are only valid for d = 1 (directions live on the circle);
the weak-duality bound over a sphere grid covers d = 2. The reference loops
at the end keep the plain per-step and per-pair forms, and the slower
iterations, of code the package runs vectorised, in closed form or by a
faster method, for equality checks; among them the scalar Bland pivot loop,
which solves one tableau at a time, for the package's lockstep loop over a
stack of tableaux. The two-phase simplex is the reference for the
package's one-phase LPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from relucells._simplex import MAX_PIVOTS, PIVOT_EPS
from relucells.errors import NumericalError


def _weights(kind: str, lifted: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """1-homogeneous weight of each unit direction."""
    if kind == "tv":
        return np.ones(thetas.shape[0])
    if kind == "label-noise":
        act = np.maximum(lifted @ thetas.T, 0.0)  # (n, T)
        return np.sqrt(np.mean(act**2, axis=0))
    raise ValueError(kind)


def _objective_batch(
    kind: str, lifted: np.ndarray, y: np.ndarray, angles: np.ndarray
) -> np.ndarray:
    """Best weighted-l1 objective for each row of candidate atom angles.

    angles: (B, n) atom angles; the n x n interpolation system is solved
    exactly per row; singular rows get +inf.
    """
    B, r = angles.shape
    thetas = np.stack([np.cos(angles), np.sin(angles)], axis=-1)  # (B, r, 2)
    A = np.maximum(np.einsum("ik,brk->bir", lifted, thetas), 0.0)  # (B, n, r)
    dets = np.abs(np.linalg.det(A))
    ok = dets > 1e-12
    obj = np.full(B, np.inf)
    if not np.any(ok):
        return obj
    rhs = np.broadcast_to(y, (int(ok.sum()), r)).copy()[:, :, None]
    z = np.linalg.solve(A[ok], rhs)[:, :, 0]
    w = np.stack(
        [
            _weights(kind, lifted, thetas[i])
            for i in np.flatnonzero(ok)
        ]
    )
    obj[ok] = np.sum(np.abs(z) * w, axis=1)
    return obj


def exhaustive_support_objective(
    points: np.ndarray,
    targets: np.ndarray,
    kind: str,
    coarse: int = 96,
    rounds: int = 12,
) -> float:
    """Global minimum of the weighted-l1 interpolation over n circle atoms.

    Coarse stage: all n-subsets of a uniform angle grid augmented with the
    2n cell-boundary angles. Refinement: joint per-atom local grids around
    the incumbent, shrinking geometrically. Atom count n is enough by the
    representer property; unused atoms get zero mass automatically.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    n = y.shape[0]
    lifted = np.hstack([points, np.ones((n, 1))])

    base = np.linspace(0.0, 2.0 * np.pi, coarse, endpoint=False)
    # boundary rays: directions orthogonal to each lifted datapoint
    perp = np.arctan2(lifted[:, 0], -lifted[:, 1])
    cand = np.concatenate([base, perp % (2 * np.pi), (perp + np.pi) % (2 * np.pi)])
    cand = np.unique(np.round(cand, 12))

    combos = np.array(list(combinations(range(len(cand)), n)))
    angles = cand[combos]  # (B, n)
    objs = _objective_batch(kind, lifted, y, angles)
    best_idx = int(np.argmin(objs))
    best_angles = angles[best_idx].copy()
    best_obj = float(objs[best_idx])

    delta = 2.0 * np.pi / coarse
    local = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
    for _ in range(rounds):
        grids = best_angles[:, None] + delta * local[None, :]  # (n, 7)
        mesh = np.meshgrid(*grids, indexing="ij")
        trial = np.stack([m.ravel() for m in mesh], axis=1)  # (7^n, n)
        objs = _objective_batch(kind, lifted, y, trial)
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj = float(objs[i])
            best_angles = trial[i].copy()
        delta /= 3.0
    return best_obj


def gd_weight_decay_reference(dataset, config):
    """Weight-decay GD as a plain allocating loop, its gradient written out.

    Shares initialisation, streams and the trace record with the package,
    so that the gradient, the decay term and the step are what a
    comparison checks.
    """
    from relucells.model import ParticleNetwork
    from relucells.trainer import (
        _check_divergence, _finish_trace, _init_params, _record, _streams,
    )

    rng_init, _, _ = _streams(config.seed)
    A, bc = _init_params(config, dataset.d, rng_init)
    b, c = bc.copy()
    eps, lam = config.step_size, config.decay
    X, y = dataset.points, dataset.targets
    n, m = dataset.n, config.width

    trace_rows: list = []
    initial_loss = None
    for step in range(config.steps + 1):
        pre = X @ A.T + b
        act = np.maximum(0.0, pre)
        resid = act @ c / m - y
        loss = 0.5 * float(resid @ resid) / n
        # relu'(0) = 0: the hinge contributes nothing
        rmask = (pre > 0.0).astype(float) * resid[:, None]
        gA = (rmask.T @ X) * c[:, None] / (n * m)
        gb = np.sum(rmask, axis=0) * c / (n * m)
        gc = act.T @ resid / (n * m)
        reg = 0.0
        if lam > 0.0:
            if config.decay_potential == "norm-squared":
                val = float(np.sum(A**2) + np.sum(b**2) + np.sum(c**2))
                dA, db, dc = 2.0 * A, 2.0 * b, 2.0 * c
            else:  # path norm; subgradient 0 at either zero factor
                norms = np.sqrt(np.sum(A**2, axis=1) + b**2)
                absc = np.abs(c)
                val = float(np.sum(absc * norms))
                safe = np.where(norms > 0, norms, 1.0)
                dA = (absc / safe)[:, None] * A
                db = (absc / safe) * b
                dc = np.sign(c) * norms
            scale = lam / m
            reg = scale * val
            gA = gA + scale * dA
            gb = gb + scale * db
            gc = gc + scale * dc

        obj = loss + reg
        if initial_loss is None:
            initial_loss = max(obj, 1e-12)
        _check_divergence(obj, initial_loss, step)
        if step % config.record_stride == 0 or step == config.steps:
            net = ParticleNetwork(A.copy(), b.copy(), c.copy())
            _record(trace_rows, step, net, dataset, loss, reg, (gA, gb, gc))
        if step == config.steps:
            break
        A = A - eps * gA
        b = b - eps * gb
        c = c - eps * gc
    return ParticleNetwork(A, b, c), _finish_trace(trace_rows)


def sgd_label_noise_reference(dataset, config):
    """Label-noise SGD as a plain per-step loop, one scalar draw per step.

    Shares initialisation, streams and the trace record with the package so
    that the step loop and its random draws are what a comparison checks.
    """
    from relucells.model import ParticleNetwork
    from relucells.trainer import (
        TrainConfig, _check_divergence, _finish_trace, _init_params,
        _record, _streams, objective_and_grads,
    )

    rng_init, rng_sample, rng_noise = _streams(config.seed)
    A, bc = _init_params(config, dataset.d, rng_init)
    b, c = bc.copy()
    eps = config.step_size
    n, m = dataset.n, config.width
    X, y = dataset.points, dataset.targets

    trace_rows: list = []
    initial_loss = None
    noise_cfg = TrainConfig(
        width=config.width, steps=config.steps, step_size=config.step_size,
        seed=config.seed, record_stride=config.record_stride,
    )  # decay stripped so recorded gradients are pure data gradients
    for step in range(config.steps + 1):
        net = ParticleNetwork(A, b, c)
        if step % config.record_stride == 0 or step == config.steps:
            _, loss, reg, gA, gb, gc = objective_and_grads(
                net, dataset, noise_cfg
            )
            if initial_loss is None:
                initial_loss = max(loss, 1e-12)
            _check_divergence(loss, initial_loss, step)
            _record(trace_rows, step, net, dataset, loss, reg, (gA, gb, gc))
        if step == config.steps:
            break

        i = int(rng_sample.integers(n))
        if config.noise_dist == "rademacher":
            r = float(rng_noise.choice([-1.0, 1.0]))
        else:
            r = float(rng_noise.normal())
        ytil = y[i] + config.noise * r

        pre = A @ X[i] + b  # (m,)
        act = np.maximum(0.0, pre)
        e = float(act @ c) / m - ytil
        mask = (pre > 0.0).astype(float)
        # gradient of (f - y~)^2, no 1/2 factor
        coef = 2.0 * e / m
        A = A - eps * coef * (mask * c)[:, None] * X[i]
        b = b - eps * coef * mask * c
        c = c - eps * coef * act
    return net, _finish_trace(trace_rows)


def ray_premerge_reference(dirs, z, members, tol):
    """Greedy pairwise merge of unit directions closer than tol.

    Each direction joins the first earlier kept direction u with
    2 atan2(|u - v|, |u + v|) < tol (the angle, exact down to 0) and adds
    its mass and members there.
    """
    out_d, out_z, out_m = [], [], []
    for v, w, mem in zip(dirs, z, members):
        for idx, u in enumerate(out_d):
            gap = np.sqrt(np.sum((u - v) ** 2))
            if 2.0 * np.arctan2(gap, np.sqrt(np.sum((u + v) ** 2))) < tol:
                out_z[idx] += w
                out_m[idx].extend(mem)
                break
        else:
            out_d.append(v)
            out_z.append(w)
            out_m.append(list(mem))
    return np.array(out_d), np.array(out_z), out_m


def fibonacci_sphere(m: int) -> np.ndarray:
    """m nearly uniform unit vectors in R^3 (golden-angle spiral)."""
    i = np.arange(m) + 0.5
    z = 1.0 - 2.0 * i / m
    r = np.sqrt(1.0 - z**2)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def weak_duality_bound(
    kind: str, points: np.ndarray, targets: np.ndarray, mult: np.ndarray,
    m: int = 200_000,
) -> float:
    """Lower bound on the d = 2 interpolation objective from multipliers.

    Any lam gives objective >= y.lam / max_t |sum_i lam_i relu(<x~_i, t>)| /
    w(t). The max runs over a Fibonacci grid of m directions, which can miss
    the peak, so the grid value can exceed the objective slightly.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lifted = np.hstack([points, np.ones((points.shape[0], 1))])
    thetas = fibonacci_sphere(m)
    act = np.maximum(lifted @ thetas.T, 0.0)  # (n, m)
    w = _weights(kind, lifted, thetas)
    live = w > 0.0
    peak = np.max(np.abs(mult @ act[:, live]) / w[live])
    return float(np.asarray(targets) @ mult) / peak


def cone_price_grid(q, Q, kappa, inward, m: int = 100_000) -> float:
    """max of <q, v> / (kappa sqrt(v^T Q v)) over unit v with inward @ v >= 0,
    for k = 2 or 3, on a dense grid: the circle (k = 2), or a Fibonacci
    sphere, a great circle on every wall and the edge rays of every pair of
    walls (k = 3), so that a maximum on a wall or an edge is sampled along
    it. A direction where the gauge vanishes (below 1e-7 of its scale,
    which roundoff in Q reaches on a wall) and <q, v> > 0 gives inf; 0 when
    no direction gives a positive ratio.
    """
    k = len(q)
    if k == 2:
        t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        walls = np.stack([-inward[:, 1], inward[:, 0]], axis=1)
        V = np.vstack([np.stack([np.cos(t), np.sin(t)], axis=1), walls, -walls])
    else:
        parts = [fibonacci_sphere(m)]
        t = np.linspace(0.0, 2.0 * np.pi, m // 5, endpoint=False)
        for nrm in inward:
            basis = np.linalg.svd(nrm[None, :])[2][1:]  # two unit vectors _|_ nrm
            parts.append(np.cos(t)[:, None] * basis[0] + np.sin(t)[:, None] * basis[1])
        for a, b in combinations(range(len(inward)), 2):
            edge = np.cross(inward[a], inward[b])
            if np.linalg.norm(edge) > 1e-12:
                edge /= np.linalg.norm(edge)
                parts.append(np.stack([edge, -edge]))
        V = np.vstack(parts)
    V = V[np.all(V @ inward.T >= -1e-12, axis=1)]
    num = V @ q
    g = kappa * np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", V, Q, V), 0.0))
    ok = g > 1e-7 * kappa * np.sqrt(np.max(np.abs(Q)))
    if np.any(~ok & (num > 1e-7 * np.linalg.norm(q))):
        return float("inf")
    return max(0.0, float(np.max(num[ok] / g[ok], initial=0.0)))


def dykstra_reference(W, signs, normals, tol, max_cycles):
    """Projection of each row of W onto {v : signs_i <v, n_i> >= 0} by
    Dykstra's cyclic half-space projections, stopped when a cycle moves no
    entry by more than tol (relative) or after max_cycles cycles."""
    X = W.copy()
    n = normals.shape[0]
    C = np.zeros((X.shape[0], n, X.shape[1]))
    for _ in range(max_cycles):
        start = X
        for i in range(n):
            V = X + C[:, i]
            alpha = signs[:, i] * (V @ normals[i])
            viol = np.minimum(alpha, 0.0)
            Xn = V - (viol * signs[:, i])[:, None] * normals[i]
            C[:, i] = V - Xn
            X = Xn
        if np.max(np.abs(X - start)) <= tol * (1.0 + np.max(np.abs(X))):
            break
    return X


def bisect_secular_root(num: np.ndarray, tl: np.ndarray) -> np.ndarray:
    """The root rho of sum_j num_j / (rho + tl_j)^2 = 1 in each row with a
    root (tl > 0 and the sum above 1 at rho = 0), by bisection on
    [0, sqrt(sum_j num_j)], where the sum is at most 1, until no bracket
    end moves (at most about 1 100 halvings in double precision)."""
    lo = np.zeros(len(num))
    hi = np.sqrt(np.sum(num, axis=1))
    for _ in range(2_200):
        mid = 0.5 * (lo + hi)
        right = np.sum(num / (mid[:, None] + tl) ** 2, axis=1) > 1.0
        new_lo, new_hi = np.where(right, mid, lo), np.where(right, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return mid


def gauge_prox_bisection_reference(Q, kappa, W, t):
    """Prox of the block gauges g_b(x) = kappa_b sqrt(x^T Q_b x) with step t,
    by 70 bisection steps on the secular equation, all blocks at once.

    In the eigenbasis of Q_b the prox scales component j of row b by
    rho / (rho + t kappa_b lam_j) on lam_j > 0 and keeps it on lam_j = 0,
    where rho solves sum_j lam_j xi_j^2 / (rho + t kappa_b lam_j)^2 = 1 on
    [0, sqrt(sum_j lam_j xi_j^2)], or is 0 when the row shrinks onto the
    null space of Q_b.
    """
    lam, U = np.linalg.eigh(Q)
    lam = np.maximum(lam, 0.0)
    tau = t * np.asarray(kappa, dtype=float)
    xi0 = np.einsum("bkj,bk->bj", U, W)
    pos = lam > 0.0
    r0 = np.sqrt(np.sum(lam * xi0**2, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        g0 = np.sum(
            np.where(pos, xi0**2 / np.maximum(lam, 1e-300), 0.0), axis=1
        ) / np.maximum(tau, 1e-300) ** 2
    need = (r0 > 0.0) & (tau > 0.0) & (g0 > 1.0)
    lo = np.zeros_like(r0)
    hi = r0.copy()
    tl = tau[:, None] * lam
    num = lam * xi0**2
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        G = np.sum(num / np.maximum(mid[:, None] + tl, 1e-150) ** 2, axis=1)
        right = G > 1.0
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    rho = np.where(need, 0.5 * (lo + hi), 0.0)
    factor = np.where(
        pos, rho[:, None] / np.maximum(rho[:, None] + tl, 1e-300), 1.0
    )
    factor = np.where(tau[:, None] > 0.0, factor, 1.0)
    return np.einsum("bkj,bj->bk", U, xi0 * factor)


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    # rows with a zero in the pivot column are left exactly as they are
    rows = np.flatnonzero(np.abs(T[:, col]) > 0.0)
    rows = rows[rows != row]
    T[rows] -= T[rows, col][:, None] * T[row]
    basis[row] = col


def bland_reference(
    T: np.ndarray, basis: list[int], ncols: int
) -> tuple[str, int]:
    """Iterate Bland pivots on one tableau T (objective in last row) in
    place, entering over its first ncols columns, one row at a time in the
    ratio test.

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


def bland_stack_reference(T: np.ndarray, basis: np.ndarray):
    """`_simplex._bland`'s contract, each tableau of the stack solved on its
    own by bland_reference: returns (pivots, unbounded) per LP."""
    pivots = np.zeros(T.shape[0], dtype=np.int64)
    unbounded = np.zeros(T.shape[0], dtype=bool)
    for b in range(T.shape[0]):
        rows = basis[b].tolist()
        status, pivots[b] = bland_reference(T[b], rows, T.shape[2] - 1)
        basis[b] = rows
        unbounded[b] = status == "unbounded"
    return pivots, unbounded


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    objective: float
    basis: list[int]


def _phase1_costs(T: np.ndarray, basis: list[int], n: int) -> None:
    """Phase-1 reduced-cost row (sum of artificials) for the current basis."""
    T[-1] = 0.0
    T[-1, n:-1] = 1.0
    for i, bi in enumerate(basis):
        if bi >= n:
            T[-1] -= T[i]


def _optimum(T: np.ndarray, basis: list[int], c: np.ndarray) -> SimplexResult:
    """Read the basic solution of an optimal tableau over the columns of c."""
    x = np.zeros(c.shape[0])
    for i, bi in enumerate(basis):
        if bi < c.shape[0]:
            x[bi] = T[i, -1]
    return SimplexResult("optimal", x, float(c @ x), basis)


def simplex(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> SimplexResult:
    """Solve min c^T x s.t. Ax = b, x >= 0 by two-phase primal simplex.

    The reference for the package's one-phase LPs: phase 1 finds a feasible
    basis from artificial variables, with the package's Bland pivots.
    """
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
    status, _ = bland_reference(T, basis, n + m)
    if status == "unbounded":
        # phase 1 is bounded below by 0, so its cost row has drifted from
        # the tableau: rebuild it from the current basis and resume
        _phase1_costs(T, basis, n)
        status, _ = bland_reference(T, basis, n + m)
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
    status, _ = bland_reference(T, basis, n)
    if status == "unbounded":
        return SimplexResult("unbounded", np.zeros(n), -np.inf, basis)
    return _optimum(T, basis, c)


def lp_min_l1_two_phase(A, y) -> SimplexResult:
    """min ||z||_1 s.t. A z = y exactly, as `simplex` solves it over the
    split z = x[:s] - x[s:], x >= 0."""
    A = np.asarray(A, dtype=float)
    return simplex(np.ones(2 * A.shape[1]), np.hstack([A, -A]), y)


def margin_lp_two_phase(rows, signs):
    """Standard form (c, A, b) of max t s.t. signs_i <theta, rows_i> >= t,
    ||theta||_inf <= 1, as `simplex` solves it from an artificial basis.

    Variables p(k), q(k), t+, t-, slack_margin(m), slack_box(2k) with
    theta = p - q and t = t+ - t-; the margin rows keep slack coefficient
    -1, so the slacks are not a basis. The LP optimum is -min c^T x.
    """
    rows = np.asarray(rows, dtype=float)
    S = np.asarray(signs, dtype=float)[:, None] * rows
    m, k = rows.shape
    eye = np.eye(k)
    nvar = 4 * k + 2 + m
    A = np.zeros((m + 2 * k, nvar))
    A[:m, :k], A[:m, k : 2 * k] = S, -S
    A[:m, 2 * k], A[:m, 2 * k + 1] = -1.0, 1.0
    A[:m, 2 * k + 2 : 2 * k + 2 + m] = -np.eye(m)
    A[m : m + k, :k], A[m : m + k, k : 2 * k] = eye, -eye
    A[m + k :, :k], A[m + k :, k : 2 * k] = -eye, eye
    A[m:, 2 * k + 2 + m :] = np.eye(2 * k)
    b = np.concatenate([np.zeros(m), np.ones(2 * k)])
    c = np.zeros(nvar)
    c[2 * k], c[2 * k + 1] = -1.0, 1.0
    return c, A, b


def is_generic_reference(lifted) -> bool:
    """One rank test per min(n, d+1)-subset of the lifted rows."""
    from itertools import combinations

    n, k = lifted.shape
    size = min(n, k)
    return all(
        np.linalg.matrix_rank(lifted[list(idx)], tol=1e-10) == size
        for idx in combinations(range(n), size)
    )


def enumerate_patterns_reference(lifted, eps):
    """Sorted sign patterns of the arrangement's cells, by insertion that
    solves the margin LP of both children at every level.

    Copies of a row (equal to 1e-12) share its hyperplane and its sign.
    """
    from relucells._simplex import max_margin

    lifted = np.asarray(lifted, dtype=float)
    uniq, rep = [], []
    for row in lifted:
        for u, kept in enumerate(uniq):
            scale = max(1.0, np.max(np.abs(kept)))
            if np.max(np.abs(row - kept)) <= 1e-12 * scale:
                rep.append(u)
                break
        else:
            rep.append(len(uniq))
            uniq.append(row)
    uniq = np.array(uniq)
    partial = [()]
    for h in range(uniq.shape[0]):
        grown = [signs + (s,) for signs in partial for s in (1, -1)]
        partial = [
            cand for cand, t in zip(
                grown, max_margin(uniq[: h + 1], np.array(grown, dtype=float))[0])
            if t > eps
        ]
    return sorted(tuple(p[r] for r in rep) for p in partial)


def dr_reference(program):
    """The solver's relaxed Douglas-Rachford loop from 0 on three separate
    vectors z1, z2, z3, each step written out, with the gauge prox's Newton
    started cold at its lower bound in every call and the cone step as a
    4-D matmul over (block, face), for at most the solver's MAX_ITERS
    iterations. Returns (iterations, objective).
    """
    from relucells.solver import (
        CHECK_EVERY, MAX_ITERS, RELAX, STEP, TOL_FEAS, _objective_settled,
        cone_faces,
    )

    A, y, lam = program.A, program.y, program.lam
    n, k, B = program.dataset.n, program.k, program.n_blocks
    penalized = program.mode == "penalized"
    ridge = n * lam / STEP if penalized else 0.0
    M = A.T @ np.linalg.pinv(A @ A.T + ridge * np.eye(n), rcond=1e-12)
    walls, faces = cone_faces(program.decomposition, program.cells_used,
                              program.normals)
    walls, faces = np.concatenate([walls, walls]), np.concatenate([faces, faces])
    Q = np.array([g.Q for g in program.gauges] * 2)
    kappa = np.array([g.kappa for g in program.gauges] * 2)
    tau = STEP * kappa
    identity = np.all(kappa == 1.0) and np.allclose(Q, np.eye(k))
    lam_Q, U = np.linalg.eigh(Q)
    lam_Q = np.maximum(lam_Q, 0.0)
    pos = lam_Q > 0.0
    tl = np.where(pos, tau[:, None] * lam_Q, 1.0)

    def gauge(X):
        if identity:
            return float(np.sum(np.linalg.norm(X, axis=1)))
        xi = np.einsum("bkj,bk->bj", U, X)
        return float(np.sum(kappa * np.sqrt(np.sum(lam_Q * xi**2, axis=1))))

    def prox(X):
        if identity:
            r = np.linalg.norm(X, axis=1)
            return X * np.maximum(0.0, 1.0 - tau / np.maximum(r, 1e-300))[:, None]
        xi0 = np.einsum("bkj,bk->bj", U, X)
        num = lam_Q * xi0**2
        with np.errstate(divide="ignore", invalid="ignore"):
            need = (tau > 0.0) & (np.sum(num / tl**2, axis=1) > 1.0)
        nm, tn = num[need], tl[need]
        root = np.maximum(np.max(np.sqrt(nm) - tn, axis=1), 0.0)
        for _ in range(30):
            den = root[:, None] + tn
            q = nm / den**2
            phi = np.sum(q, axis=1)
            step = np.maximum(phi * (np.sqrt(phi) - 1.0) / np.sum(q / den, axis=1), 0.0)
            root += step
            unsettled = ~(step <= 2.3e-16 * root)
            if not unsettled.any():
                break
        else:
            root[unsettled] = bisect_secular_root(nm[unsettled], tn[unsettled])
        rho = np.zeros(B)
        rho[need] = root
        shrink = rho[:, None] / np.maximum(rho[:, None] + tl, 1e-300)
        factor = np.where(pos & (tau[:, None] > 0.0), shrink, 1.0)
        return np.einsum("bkj,bj->bk", U, xi0 * factor)

    def project(X):
        cand = np.matmul(faces, X[:, None, :, None])[..., 0]  # (B, F, k)
        inside = np.all(
            np.matmul(cand, walls.transpose(0, 2, 1))
            >= -1e-12 * np.linalg.norm(X, axis=1)[:, None, None],
            axis=2,
        )
        sq = np.where(inside, np.einsum("bfk,bfk->bf", cand, cand), -1.0)
        rows = np.arange(B)
        best = np.argmax(sq, axis=1)
        out = cand[rows, best]
        out[sq[rows, best] < 0.0] = 0.0
        return out

    z1, z2, z3 = (np.zeros(A.shape[1]) for _ in range(3))
    r = 2.0 * RELAX
    yscale = 1.0 + float(np.linalg.norm(y))
    obj_hist, best = [], None
    for it in range(1, MAX_ITERS + 1):
        x1 = prox(z1.reshape(B, k)).ravel()
        x2 = z2 - M @ (A @ z2 - y)
        x3 = project(z3.reshape(B, k)).ravel()
        m = (2.0 * (x1 + x2 + x3) - (z1 + z2 + z3)) / 3.0
        z1 += r * (m - x1)
        z2 += r * (m - x2)
        z3 += r * (m - x3)
        if it % CHECK_EVERY == 0 or it == MAX_ITERS:
            reg = gauge(x3.reshape(B, k))
            fit = A @ x3 - y
            if penalized:
                obj = 0.5 * float(fit @ fit) / n + lam * reg
                res = float(np.linalg.norm(A @ (x3 - x2))) / (n * lam)
            else:
                obj = reg
                res = float(np.linalg.norm(fit)) / yscale
            obj_hist.append(obj)
            if best is None or (res, obj) < best:
                best = (res, obj)
            if res < TOL_FEAS and _objective_settled(obj_hist):
                return it, obj
    return MAX_ITERS, best[1]
