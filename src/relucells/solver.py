"""Finite convex programs induced by the cell decomposition.

The infinite-dimensional interpolation problem over lifted measures
restricts, cell by cell, to one aggregated vector pair per cell:
u_s collects the positive-outer-weight mass (u_s ~ int_{c>0} c theta dmu)
and v_s the negative one. Only the per-cell moments matter for the data
constraints, and minimisers put a single effective atom per cell, so

    min sum_s [g_s(u_s) + g_s(v_s)]
    s.t. sum_{s: i in A_s} <x~_i, u_s - v_s> = y_i   (i = 1..n)
         u_s, v_s in cone_s

is an exact finite reformulation. g_s is the per-cell gauge of the chosen
potential. Both modes run one product-space Douglas-Rachford loop (gauge
prox / data step / cone projection). The data step w - A^T (A A^T + c I)^+
(A w - y) projects onto the constraints with c = 0; with c = n lam / STEP
it is the exact prox of (STEP / lam) h, h = ||A x - y||^2 / (2 n), so the
loop minimises g + h / lam, whose minimisers are those of lam g + h.
The gauge prox solves one secular equation per block by Newton's method,
started from the previous iteration's roots, with bisection as the
fallback.
The cone projection is exact in every dimension: the projection onto a
polyhedral cone is the orthogonal projection onto the span of one of its
faces, so it is the nearest in-cone point among the projections onto the
spans {v : <v, n_i> = 0, i in S} for sets S of at most d walls of the
cell, or the origin.

Douglas-Rachford finds which blocks carry an atom and which walls each
atom rests on long before its objective settles. So at iterations
OBJ_WINDOW 2^j where that structure is the one of the previous such
check, and once when the loop stops, a finishing step (_finish) solves
the KKT system of that structure by Newton's method and keeps the point
only when optimality_certificate proves it optimal to TOL_KKT; the solve
then stops as "certified". A declined attempt leaves the loop as it
was. Otherwise the loop stops as "converged" (residual and objective
settled) or at "max_iters". Solution.iterations counts Douglas-Rachford
iterations only.

Atom extraction reads one signed atom per live block and merges blocks on
one ray (model.merge_identical_rays), such as a wall ray that two adjacent
cells both hold.

The module also exposes the l1 re-check over fixed sphere directions:
min ||z||_1 s.t. ||A z - y||_inf <= eps at the solver's feasibility scale,
solved as its dual from the slack basis by the in-house simplex, so that
basic solutions give the at-most-n support bound for free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import _simplex
from .arrangement import CellDecomposition
from .errors import InfeasibleError, PreconditionError
from .model import Dataset, RadonMeasure, merge_identical_rays, relu
from .potentials import PotentialKind, cell_gauge, weight

ATOM_EPS_REL = 1e-6

# Stopping rule: the primal residual (constrained) or the gap between the
# multipliers read at the data step and at the cone step (penalized) is below
# TOL_FEAS, and the objective moved by at most TOL_OBJ (relative) over the
# last OBJ_WINDOW iterations, looked at every CHECK_EVERY iterations.
TOL_FEAS = 1e-7
TOL_OBJ = 1e-9
OBJ_WINDOW = 100
CHECK_EVERY = 10
STEP = 1.0  # gauge prox step of the splitting
RELAX = 0.85  # 0.5 is plain Douglas-Rachford
# A finished point is kept when its KKT residual, its dual bound's excess
# over 1 and its most negative normal-cone coefficient are within TOL_KKT.
TOL_KKT = 1e-9


@dataclass
class SolverConfig:
    max_iters: int = 300_000
    init_scale: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class FiniteProgram:
    dataset: Dataset
    decomposition: CellDecomposition
    kind: PotentialKind
    mode: str  # "constrained" | "penalized"
    lam: float
    cells_used: tuple  # decomposition cell indices carrying variables
    gauges: tuple  # one CellGauge per used cell
    A: np.ndarray  # (n, 2 K k) constraint matrix on flattened (u, v)
    y: np.ndarray
    signs: np.ndarray = field(repr=False)  # (2K, n) cone signs per block
    normals: np.ndarray = field(repr=False)  # (n, k) unit hyperplane normals
    cones: np.ndarray = field(repr=False)  # (2K, k + w, F + 1, k) see cone_operator

    @property
    def k(self) -> int:
        return self.dataset.d + 1

    @property
    def n_blocks(self) -> int:
        return 2 * len(self.cells_used)


def build_program(
    dataset: Dataset,
    decomp: CellDecomposition,
    kind: PotentialKind,
    mode: str = "constrained",
    lam: float = 0.0,
) -> FiniteProgram:
    """Assemble the per-cell program; only nonempty-active-set cells carry variables."""
    if mode not in ("constrained", "penalized"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "penalized" and lam <= 0:
        raise PreconditionError("penalized mode requires lam > 0")
    lifted = decomp.lifted
    n, k = lifted.shape
    used = tuple(i for i, c in enumerate(decomp.cells) if c.active_set)
    gauges = tuple(cell_gauge(kind, decomp, i) for i in used)
    K = len(used)
    A = np.zeros((n, 2 * K * k))
    for blk, ci in enumerate(used):
        cell = decomp.cells[ci]
        for i in cell.active_set:
            A[i, blk * k : (blk + 1) * k] = lifted[i]
            A[i, (K + blk) * k : (K + blk + 1) * k] = -lifted[i]
    signs = np.array(
        [decomp.cells[ci].signs for ci in used] * 2, dtype=float
    ).reshape(2 * K, n)
    normals = lifted / np.linalg.norm(lifted, axis=1)[:, None]
    cones = cone_operator(*cone_faces(decomp, used, normals))
    return FiniteProgram(
        dataset, decomp, kind, mode, lam, used, gauges, A,
        dataset.targets.copy(), signs, normals, np.concatenate([cones, cones]),
    )


@dataclass
class Solution:
    u: np.ndarray  # (K, k) aggregated positive-mass vectors per used cell
    v: np.ndarray  # (K, k) aggregated negative-mass vectors
    cells_used: tuple
    objective: float
    primal_residual: float
    iterations: int
    converged: bool
    mode: str
    lam: float
    diagnostics: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "lam": self.lam,
                "objective": self.objective,
                "primal_residual": self.primal_residual,
                "iterations": self.iterations,
                "converged": self.converged,
                "cells_used": list(self.cells_used),
                "u": self.u.tolist(),
                "v": self.v.tolist(),
                "diagnostics": {
                    k: v for k, v in self.diagnostics.items()
                    if isinstance(v, (int, float, str, bool))
                },
            },
            indent=2,
        )


class _GaugeProx:
    """Vectorized prox of the per-block gauges g_b(x) = kappa_b sqrt(x^T Q_b x).

    In the eigenbasis of Q_b the prox with step t scales component j by
    rho / (rho + t kappa_b lam_j), where rho solves the secular equation
    sum_j lam_j xi_j^2 / (rho + t kappa_b lam_j)^2 = 1 (Newton, with a
    bisection fallback; see _secular_root), and keeps null-space components.
    A row whose equation has no positive root shrinks onto the null space.
    Each call starts Newton from the previous call's roots, and
    newton_steps counts the steps taken over all calls.
    TV gauges (kappa = 1, Q = I) take the closed-form block soft threshold.
    """

    def __init__(self, gauges):
        blocks = list(gauges) * 2  # u blocks then v blocks share gauges
        self.kappa = np.array([g.kappa for g in blocks])
        self.identity = all(
            g.kappa == 1.0 and np.allclose(g.Q, np.eye(g.Q.shape[0])) for g in blocks
        )
        self.newton_steps = 0
        self.t = None
        self.ones = np.ones(blocks[0].Q.shape[0]) if blocks else None
        if not self.identity:
            evals, evecs = [], []
            for g in blocks:
                lam, U = np.linalg.eigh(g.Q)
                evals.append(np.maximum(lam, 0.0))
                evecs.append(U)
            self.evals = np.array(evals)  # (B, k)
            self.evecs = np.array(evecs)  # (B, k, k), columns are eigenvectors
            self.rho = np.zeros(len(blocks))  # the last call's roots

    def value(self, W: np.ndarray) -> float:
        if self.identity:
            return float(np.sum(np.linalg.norm(W, axis=1)))
        xi = np.einsum("bkj,bk->bj", self.evecs, W)
        return float(np.sum(self.kappa * np.sqrt(np.sum(self.evals * xi**2, axis=1))))

    def _set_step(self, t: float) -> None:
        """The parts of the prox that depend on the step t only."""
        self.t = t
        self.tau = t * self.kappa
        if self.identity:
            return
        pos = self.evals > 0.0
        # zero eigenvalues carry no term: give them a unit denominator
        self.tl = np.where(pos, self.tau[:, None] * self.evals, 1.0)
        # components the prox scales; the others (tau = 0 or lam_j = 0) stay
        self.scaled = pos & (self.tau[:, None] > 0.0)
        with np.errstate(divide="ignore"):
            self.inv_tl2 = np.where(self.scaled, 1.0 / self.tl**2, 0.0)

    def prox(self, W: np.ndarray, t: float) -> np.ndarray:
        if t != self.t:
            self._set_step(t)
        if self.identity:
            r = np.sqrt((W * W) @ self.ones)
            return W * np.maximum(0.0, 1.0 - self.tau / np.maximum(r, 1e-300))[:, None]
        xi0 = np.matmul(W[:, None], self.evecs)[:, 0]
        num = self.evals * xi0**2
        # the secular equation has a positive root where phi(0) > 1;
        # elsewhere the row shrinks onto the null space of Q_b
        need = (num * self.inv_tl2) @ self.ones > 1.0
        rho = np.zeros(len(W))
        if need.any():
            rho[need], steps = _secular_root(num[need], self.tl[need], self.rho[need])
            self.newton_steps += steps
        self.rho = rho
        r = rho[:, None]
        factor = np.where(self.scaled, r / np.maximum(r + self.tl, 1e-300), 1.0)
        return np.matmul(self.evecs, (xi0 * factor)[:, :, None])[:, :, 0]


def _secular_root(
    num: np.ndarray, tl: np.ndarray, start: np.ndarray | float = 0.0
) -> tuple[np.ndarray, int]:
    """The root rho > 0 of phi(rho) = sum_j num_j / (rho + tl_j)^2 = 1 in
    each row, for rows with phi(0) > 1 and tl > 0, and the number of Newton
    steps taken.

    Newton on h = phi^(-1/2) - 1, which is concave and increasing (Moré &
    Sorensen 1983), from max(start, L) with L = max(max_j sqrt(num_j) -
    tl_j, 0). At L one term of phi is 1 (or L = 0, where phi > 1), so
    h(L) <= 0 and L is at or below the root. Only the first step may go
    down: by concavity h lies below its tangent, so the tangent's zero,
    where the step lands, has h <= 0 and is at or below the root; the step
    is kept no lower than L. From a point where h <= 0 every later step
    rises to the root with no overshoot. Started at the root of a nearby
    equation (the previous call's rho), Newton needs fewer steps than from
    L. Rows whose rho still moves by more than an ulp after 30 steps fall
    back to bisection.
    """
    ones = np.ones(num.shape[1])
    floor = np.maximum(np.maximum.reduce(np.sqrt(num) - tl, axis=1), 0.0)
    rho = np.maximum(start, floor)
    for steps in range(1, 31):
        den = rho[:, None] + tl
        q = num / den**2
        phi = q @ ones
        new = np.maximum(rho + phi * (np.sqrt(phi) - 1.0) / ((q / den) @ ones), floor)
        settled = np.abs(new - rho) <= 2.3e-16 * new
        # after the first step h(rho) <= 0, so the iterates only rise
        rho = floor = new
        if settled.all():
            return rho, steps
    rho[~settled] = _bisect_root(num[~settled], tl[~settled])
    return rho, steps


def _bisect_root(num: np.ndarray, tl: np.ndarray) -> np.ndarray:
    """The root of _secular_root by 70 bisection steps on [0, sqrt(sum num)],
    where phi <= 1."""
    lo = np.zeros(len(num))
    hi = np.sqrt(np.sum(num, axis=1))
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        right = np.sum(num / (mid[:, None] + tl) ** 2, axis=1) > 1.0
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def cone_faces(
    decomp: CellDecomposition, used: tuple, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Walls and face projectors of the cones of the given cells.

    Hyperplane i is a wall of a cell when flipping its sign (and that of
    any copy of it) gives another cell. For each cell, walls holds the
    inward normals s_i n_i of its walls, and faces the orthogonal
    projectors onto {v : <v, n_i> = 0 for i in S}, one for every set S of
    fewer than k walls, S = () (the identity) first. Short rows are padded
    with zero walls and identity projectors, which change nothing.
    """
    n, k = normals.shape
    # copies of one hyperplane (repeated points) have equal signs in every cell
    all_signs = np.array([c.signs for c in decomp.cells])
    _, copy_of = np.unique(all_signs.T, axis=0, return_inverse=True)
    copies = copy_of[:, None] == copy_of[None, :]  # (n, n)
    projector = {(): np.eye(k)}
    cell_walls, cell_faces = [], []
    for ci in used:
        s = np.array(decomp.cells[ci].signs)
        flipped = np.where(copies, -s, s)  # row i: hyperplane i crossed
        bounds = [i for i in range(n) if tuple(flipped[i].tolist()) in decomp.lookup]
        cell_walls.append(s[bounds, None] * normals[bounds])
        cell_faces.append([])
        for size in range(k):
            for S in combinations(bounds, size):
                if S not in projector:
                    N = normals[list(S)]
                    projector[S] = np.eye(k) - np.linalg.pinv(N) @ N
                cell_faces[-1].append(projector[S])
    walls = np.zeros((len(used), max(map(len, cell_walls), default=0), k))
    faces = np.tile(np.eye(k), (len(used), max(map(len, cell_faces), default=1), 1, 1))
    for c, (w, f) in enumerate(zip(cell_walls, cell_faces)):
        walls[c, : len(w)] = w
        faces[c, : len(f)] = f
    return walls, faces


def cone_operator(walls: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """The stacked cone operator of project_cones, from cone_faces' output.

    Block b holds, for each face f, the projector P_f in its first k rows
    and walls[b] @ P_f in its last w rows, so that one matmul with a row w
    gives every candidate P_f w and the wall values of each. Face 0 is the
    cone's apex {0} (P = 0), then come cone_faces' faces, the identity
    first. Shape (B, k + w, F + 1, k): row r of face f is [b, r, f].
    """
    B, _, k, _ = faces.shape
    P = np.concatenate([np.zeros((B, 1, k, k)), faces], axis=1)
    stacked = np.concatenate([P, walls[:, None] @ P], axis=2)  # (B, F + 1, k + w, k)
    return np.ascontiguousarray(stacked.transpose(0, 2, 1, 3))


def project_cones(W: np.ndarray, cones: np.ndarray) -> np.ndarray:
    """Euclidean projection of each block row of W onto its cone
    {v : <m, v> >= 0 for every row m of walls[b]}; cones is the stacked
    operator of those blocks (see cone_operator and cone_faces).

    The projection lies in the relative interior of one face and equals the
    projection onto that face's span there. So it is the nearest of the
    candidates P_f w that lie in the cone (to 1e-12 ||w||), which is the
    longest one since ||w - P w||^2 = ||w||^2 - ||P w||^2. The apex's
    candidate 0 is always in the cone and is the answer when no longer one
    is. One 3-D matmul gives every candidate and its wall values.
    """
    B, R, F, k = cones.shape
    out = np.matmul(cones.reshape(B, R * F, k), W[:, :, None]).reshape(B, R, F)
    cand = out[:, :k]  # column f is P_f w
    # ||P w||^2 = <w, P w> for an orthogonal projector P; face 1 is the
    # identity, so sq[:, 1] is ||w||^2
    sq = np.matmul(W[:, None], cand)[:, 0]
    inside = np.minimum.reduce(out[:, k:], axis=1) >= -1e-12 * np.sqrt(sq[:, 1:2])
    # candidates outside score 0, and ties go to the first face, the apex
    return cand[np.arange(B), :, (sq * inside).argmax(axis=1)]


def cone_violation(
    W: np.ndarray, signs: np.ndarray, normals: np.ndarray
) -> float:
    vals = signs * (W @ normals.T)
    return float(max(0.0, -np.min(vals))) if vals.size else 0.0


def _split(program: FiniteProgram, w: np.ndarray) -> np.ndarray:
    return w.reshape(program.n_blocks, program.k)


def solve(program: FiniteProgram, config: SolverConfig | None = None) -> Solution:
    """Solve the finite program by operator splitting (see _solve)."""
    config = config or SolverConfig()
    if program.n_blocks == 0:
        # no cell sees any datapoint; only y = 0 is representable
        if np.max(np.abs(program.y)) > TOL_FEAS:
            raise InfeasibleError("no active cells but nonzero targets")
        z = np.zeros((0, program.k))
        return Solution(z, z, (), 0.0, 0.0, 0, True, program.mode, program.lam,
                        {"stop_reason": "converged", "finish_attempts": 0})
    return _solve(program, config)


def _initial(program: FiniteProgram, config: SolverConfig) -> np.ndarray:
    dim = program.A.shape[1]
    if config.init_scale <= 0.0:
        return np.zeros(dim)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x501E]))
    return config.init_scale * rng.standard_normal(dim)


def _objective_settled(obj_hist: list[float]) -> bool:
    """The objective moved by at most TOL_OBJ (relative) over the last
    OBJ_WINDOW iterations."""
    lag = OBJ_WINDOW // CHECK_EVERY
    if len(obj_hist) <= lag:
        return False
    ref = obj_hist[-lag - 1]
    return abs(obj_hist[-1] - ref) <= TOL_OBJ * max(1.0, abs(ref))


def _solve(program: FiniteProgram, config: SolverConfig) -> Solution:
    """Relaxed product-space Douglas-Rachford on the gauges g, the data
    term and the cone indicators, in both modes.

    Constrained, the data term is the indicator of {A x = y}, whose prox is
    the affine projection w - M (A w - y) with M = A^T (A A^T)^+. Penalized,
    the loop minimises g + h / lam with h(x) = ||A x - y||^2 / (2 n), which
    has the minimisers of lam g + h. The prox of (STEP / lam) h is exactly

        w - A^T (A A^T + (n lam / STEP) I)^(-1) (A w - y),

    the same affine step with a ridge of n lam / STEP on A A^T (ridge 0 when
    constrained). The constrained loop stops on the primal residual, the
    penalized one once the multipliers (y - A x) / (n lam) read at x2 and
    at x3 agree to TOL_FEAS.

    The rows of one (6, dim) array S hold the three copies z1, z2, z3 and
    their prox points x1, x2, x3. The relaxed step z_i += r (m - x_i), with
    m = (2 sum_i x_i - sum_i z_i) / 3, is linear in S, so it is one matmul
    with a fixed 3 x 6 matrix. The cone step calls project_cones through
    the module, once per iteration.
    """
    A, y, lam = program.A, program.y, program.lam
    n = program.dataset.n
    penalized = program.mode == "penalized"
    AAT = A @ A.T
    # a diagonal of sums of squares holds no -0.0, so ridge 0 changes no bit
    AAT.flat[:: n + 1] += n * lam / STEP if penalized else 0.0
    M = A.T @ np.linalg.pinv(AAT, rcond=1e-12)

    if not penalized:
        # feasibility pre-pass: y must lie in the range of A
        gap = np.linalg.norm(A @ (M @ y) - y)
        if gap > 1e-8 * (1.0 + np.linalg.norm(y)):
            raise InfeasibleError(
                f"targets are not interpolable by the active cells (gap {gap:.3e})"
            )

    prox_g = _GaugeProx(program.gauges)
    B, k = program.n_blocks, program.k
    S = np.zeros((6, A.shape[1]))
    S[:3] = _initial(program, config)
    z1, z2, z3, x1, x2, x3 = S  # row views
    Z1, Z3, X1, X3 = (v.reshape(B, k) for v in (z1, z3, x1, x3))
    r = 2.0 * RELAX
    C = np.hstack([np.eye(3) - r / 3.0, 2.0 * r / 3.0 - r * np.eye(3)])
    Z = np.empty((3, A.shape[1]))
    fit_z2 = np.empty(n)
    yscale = 1.0 + float(np.linalg.norm(y))

    obj_hist: list[float] = []
    best = None
    it = 0
    stop_reason = "max_iters"
    finished = last_face = None
    attempts = 0
    while it < config.max_iters:
        it += 1
        X1[:] = prox_g.prox(Z1, STEP)
        np.matmul(A, z2, out=fit_z2)
        fit_z2 -= y
        np.subtract(z2, M @ fit_z2, out=x2)
        X3[:] = project_cones(Z3, program.cones)
        np.matmul(C, S, out=Z)  # the relaxed product-space step
        S[:3] = Z

        if it % CHECK_EVERY == 0 or it == config.max_iters:
            obj, fit = _objective(program, prox_g, x3)
            if penalized:
                res = float(np.linalg.norm(A @ (x3 - x2))) / (n * lam)
            else:
                res = float(np.linalg.norm(fit)) / yscale
            obj_hist.append(obj)
            if best is None or (res, obj) < best[:2]:
                best = (res, obj, x3.copy())
            if res < TOL_FEAS and _objective_settled(obj_hist):
                stop_reason = "converged"
                best = (res, obj, x3.copy())
                break
            j = it // OBJ_WINDOW
            if it == j * OBJ_WINDOW and j & (j - 1) == 0:
                # attempt once the live blocks and their walls have held
                # since the last such check: on a non-unique optimum an
                # early structure would pick another point of the optimal
                # face than the one the loop settles on
                live, _, touched = _structure(program, x3, obj)
                face = (live.tobytes(), touched[live].tobytes())
                if face == last_face:
                    attempts += 1
                    finished = _finish(program, prox_g, x3, obj)
                    if finished is not None:
                        break
                last_face = face

    if finished is None:
        attempts += 1
        finished = _finish(program, prox_g, best[2], best[1])
    if finished is not None:
        x, obj = finished
        stop_reason = "certified"
    else:
        _, obj, x = best
    W = _split(program, x)
    K = len(program.cells_used)
    fit = A @ x - y
    diag = {
        "step": STEP,
        "cone_violation": cone_violation(W, program.signs, program.normals),
        "objective_checks": len(obj_hist),
        "stop_reason": stop_reason,
        "finish_attempts": attempts,
        "newton_steps": prox_g.newton_steps,
    }
    if penalized:
        diag["data_term"] = 0.5 * float(fit @ fit) / n
        diag["regulariser"] = prox_g.value(W)
    return Solution(
        W[:K].copy(), W[K:].copy(), program.cells_used, obj,
        float(np.linalg.norm(fit)) / yscale, it, stop_reason != "max_iters",
        program.mode, program.lam, diag,
    )


def _objective(program: FiniteProgram, prox_g: _GaugeProx, x: np.ndarray):
    """The objective at x, and the fit A x - y."""
    fit = program.A @ x - program.y
    reg = prox_g.value(_split(program, x))
    if program.mode == "penalized":
        return 0.5 * float(fit @ fit) / program.dataset.n + program.lam * reg, fit
    return reg, fit


def _finish(
    program: FiniteProgram, prox_g: _GaugeProx, x: np.ndarray, objective: float
) -> tuple[np.ndarray, float] | None:
    """Newton's method on the KKT system of the live blocks of x and the
    walls they touch; (point, objective) when optimality_certificate proves
    the point optimal to TOL_KKT, else None. x itself is not changed.

    Live block b is restricted to the span of the face it rests on, x_b =
    U_b z_b with U_b an orthonormal basis of {v : <n_i, v> = 0 for every
    touched wall i}, and (z, mu) solves the square system

        U_b^T grad g_b(U_b z_b) = (A_b U_b)^T mu    (every live b)
        sum_b A_b U_b z_b - y + ridge mu = 0,

    with ridge 0 when constrained and n lam when penalized, where mu =
    (y - A x) / (n lam) are the data step's multipliers. The normal-cone
    terms of the touched walls vanish on the face span. Each step is the
    least-squares solution of the linearised system, which is singular
    where two blocks hold one ray or the optimum is not unique.
    """
    A, y, k = program.A, program.y, program.k
    n, K = program.dataset.n, len(program.cells_used)
    W = _split(program, x)
    live, inward, touched = _structure(program, x, objective)
    if live.size == 0:
        return None
    blocks = []  # (block, U_b, slice of z_b)
    m = 0
    for b in live:
        _, sv, Vt = np.linalg.svd(inward[b, touched[b]].reshape(-1, k))
        U = Vt[int(np.sum(sv > 1e-10)):].T
        blocks.append((b, U, slice(m, m + U.shape[1])))
        m += U.shape[1]
    G = np.hstack([A[:, b * k : (b + 1) * k] @ U for b, U, _ in blocks])
    ridge = n * program.lam if program.mode == "penalized" else 0.0
    J = np.zeros((m + n, m + n))
    J[:m, m:] = -G.T
    J[m:, :m] = G
    J[m:, m:] = ridge * np.eye(n)
    p = np.concatenate([U.T @ W[b] for b, U, _ in blocks] + [np.zeros(n)])
    F = np.empty(m + n)
    for step in range(9):  # at most 8 Newton steps
        z, mu = p[:m], p[m:]
        for b, U, s in blocks:
            g = program.gauges[b % K]
            xb = U @ z[s]
            Qx = g.Q @ xb
            norm = np.sqrt(xb @ Qx)
            if not norm > 0.0:
                return None
            F[s] = g.kappa * (U.T @ Qx) / norm
            J[s, s] = g.kappa / norm * (U.T @ (g.Q - np.outer(Qx, Qx) / norm**2) @ U)
        F[:m] -= G.T @ mu
        F[m:] = G @ z - y + ridge * mu
        res = np.max(np.abs(F))
        if not np.isfinite(res):
            return None
        if res <= 1e-14 * (1.0 + np.max(np.abs(p))) or step == 8:
            break
        p -= np.linalg.lstsq(J, F, rcond=None)[0]
    if res > TOL_KKT:
        return None

    Wf = np.zeros_like(W)
    for b, U, s in blocks:
        Wf[b] = U @ p[s]
    xf = Wf.ravel()
    inside = program.signs * (Wf @ program.normals.T) >= -1e-12 * np.linalg.norm(
        Wf, axis=1)[:, None]
    obj, fit = _objective(program, prox_g, xf)
    if not inside.all() or (
        not ridge and np.linalg.norm(fit) >= TOL_FEAS * (1.0 + np.linalg.norm(y))
    ):
        return None
    sol = Solution(Wf[:K], Wf[K:], program.cells_used, obj, 0.0, 0, True,
                   program.mode, program.lam, {})
    cert = optimality_certificate(program, sol)
    if (cert["alignment_residual"] <= TOL_KKT
            and cert["inactive_dual_bound"] <= 1.0 + TOL_KKT
            and cert["normal_multiplier_min"] >= -TOL_KKT):
        return xf, obj
    return None


def _atom_eps(objective: float) -> float:
    """Norm below which a block carries no atom."""
    return ATOM_EPS_REL * max(1.0, abs(objective))


def _touched_walls(program: FiniteProgram, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inward normals s_i n_i of every block's hyperplanes, (2K, n, k),
    and which of them each block x touches: s_i <n_i, x> is zero to 1e-6
    max(1, ||x||)."""
    inward = program.signs[:, :, None] * program.normals
    touched = np.abs(np.einsum("bnk,bk->bn", inward, W)) <= 1e-6 * np.maximum(
        1.0, np.linalg.norm(W, axis=1)
    )[:, None]
    return inward, touched


def _structure(program: FiniteProgram, x: np.ndarray, objective: float):
    """The live blocks of x (indices), the inward wall normals and which
    walls each block touches (see _live_blocks and _touched_walls)."""
    W = _split(program, x)
    live = np.flatnonzero(_live_blocks(program, W, _atom_eps(objective)))
    return (live, *_touched_walls(program, W))


def cone_price(program: FiniteProgram, blocks, q: np.ndarray) -> np.ndarray:
    """sup of <q_b, v> / g_b(v) over the cone of block b, for each block b
    of blocks and its row q_b of q: the dual gauge of q_b on the cone.

    The sup is reached in the relative interior of a face of the cone,
    where it is the sup over the face's span. With P the projector onto
    that span and R = P Q_b P, the maximiser there is v = R^+ q_b, of value
    sqrt(q_b^T R^+ q_b) / kappa_b, and the sup is unbounded along r = (P -
    R^+ R) q_b, the part of P q_b where the gauge vanishes. So the price is
    the largest ratio among the candidates v and r of every face (the faces
    of cone_faces) that lie in the cone; r counts when it is above 1e-9
    ||q_b||. For the TV gauge the candidates are the projections P q_b, and
    the price is the norm of the projection onto the cone.
    """
    blocks = np.asarray(blocks, dtype=int)
    if blocks.size == 0:
        return np.zeros(0)
    k = program.k
    K = len(program.cells_used)
    cones = program.cones[blocks]
    P = cones[:, :k, 1:].transpose(0, 2, 1, 3)  # (B, F, k, k), the apex left out
    WP = cones[:, k:, 1:].transpose(0, 2, 1, 3)  # (B, F, w, k) walls @ P
    Qb = np.array([program.gauges[b % K].Q for b in blocks])
    kappa = np.array([program.gauges[b % K].kappa for b in blocks])[:, None, None]
    # R^+ from the eigenpairs of R above 1e-12 ||Q_b||: the face's own
    # scale would make R^+ of a face on which the gauge vanishes roundoff
    lam, E = np.linalg.eigh(P @ Qb[:, None] @ P)
    keep = lam > 1e-12 * np.max(np.abs(Qb), axis=(1, 2))[:, None, None]
    Eq = np.where(keep, np.einsum("bfki,bk->bfi", E, q), 0.0)  # q in R's eigenbasis
    v = np.einsum("bfki,bfi->bfk", E, Eq / np.where(keep, lam, 1.0))
    r = np.einsum("bfkj,bj->bfk", P, q) - np.einsum("bfki,bfi->bfk", E, Eq)
    r[np.linalg.norm(r, axis=2) <= 1e-9 * np.linalg.norm(q, axis=1)[:, None]] = 0.0
    cand = np.stack([v, r], axis=2)  # (B, F, 2, k)
    inside = np.min(cand @ WP.transpose(0, 1, 3, 2), axis=3, initial=0.0) >= (
        -1e-12 * np.linalg.norm(cand, axis=3))
    num = np.einsum("bfck,bk->bfc", cand, q)
    gv = kappa * np.sqrt(np.maximum(np.einsum("bfci,bij,bfcj->bfc", cand, Qb, cand), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gv > 0.0, num / gv, np.where(num > 0.0, np.inf, 0.0))
    return np.max(np.where(inside, ratio, 0.0), axis=(1, 2), initial=0.0)


def _live_blocks(program: FiniteProgram, W: np.ndarray, atom_eps: float) -> np.ndarray:
    """Which blocks carry an atom: norm above atom_eps, on a ray that
    activates some datapoint.

    A block on the wall of every datapoint active in its cell predicts
    nothing and costs nothing under data-dependent gauges, whose value
    there is roundoff; splitting iterates may leave arbitrary mass on it.
    """
    norms = np.linalg.norm(W, axis=1)
    act = np.max(program.decomposition.lifted @ W.T, axis=0)
    return (norms > atom_eps) & (act > 1e-12 * norms)


def extract_radon(program: FiniteProgram, solution: Solution) -> RadonMeasure:
    """Read off the sphere atoms: u_s -> (+||u_s||, u_s/||u_s||), v_s negated.

    The live blocks are taken cell by cell, u before v, and merged by
    merge_identical_rays: a wall ray that two adjacent cells both hold, or
    a u/v pair on one ray, becomes one atom with the summed signed mass.
    Atoms whose net mass is at most atom_eps are dropped.
    """
    atom_eps = _atom_eps(solution.objective)
    K = len(solution.u)
    W = np.vstack([solution.u, solution.v])
    live = _live_blocks(program, W, atom_eps)
    dirs, masses = [], []
    for s in range(K):
        for blk, sign in ((s, 1.0), (K + s, -1.0)):
            if live[blk]:
                norm = np.linalg.norm(W[blk])
                dirs.append(W[blk] / norm)
                masses.append(sign * norm)
    if not dirs:
        return RadonMeasure.empty(program.dataset.d)
    dirs = np.array(dirs)
    heads, summed, _ = merge_identical_rays(dirs, masses)
    keep = heads[np.abs(summed[heads]) > atom_eps]
    return RadonMeasure(dirs[keep], summed[keep])


@dataclass(frozen=True)
class LPInstance:
    """min ||z||_1 s.t. A z = y with A_{i,s} = relu(<x~_i, theta_s>)."""

    A: np.ndarray
    y: np.ndarray

    @classmethod
    def from_directions(
        cls, dataset: Dataset, directions: np.ndarray, kind: PotentialKind
    ) -> "LPInstance":
        """Assemble the interpolation LP columns from candidate directions,
        rescaled onto the unit sphere of the potential's weight so that the
        optimal l1 mass equals the weighted objective.
        """
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        w = weight(kind, dirs)
        if np.any(w <= 0.0):
            raise PreconditionError(
                "cannot weight-normalize a direction with zero weight"
            )
        A = relu(dataset.lifted @ (dirs / w[:, None]).T)
        return cls(A, dataset.targets.copy())


def lp_l1(instance: LPInstance) -> tuple[np.ndarray, np.ndarray, float]:
    """Re-solve the interpolation over the instance's columns as the l1
    program min ||z||_1 s.t. ||A z - y||_inf <= eps, eps = TOL_FEAS (1 +
    ||y||_inf), the solver's own feasibility scale, so that a measure that
    interpolates only to that scale still counts. Returns (z, support,
    objective), with at most n entries in the support. The objective is
    y.lam for the optimal dual lam, a lower bound on the exact program
    (A z = y) over these columns that exceeds ||z||_1 by eps ||lam||_1.
    Raises InfeasibleError when no z reaches y within eps.
    """
    eps = TOL_FEAS * (1.0 + float(np.max(np.abs(instance.y), initial=0.0)))
    z, obj = _simplex.lp_min_l1(instance.A, instance.y, eps)
    support = np.flatnonzero(np.abs(z) > 1e-9 * max(1.0, float(np.max(np.abs(z)))))
    return z, support, obj


def optimality_certificate(program: FiniteProgram, solution: Solution) -> dict:
    """Diagnostic KKT check: gauge-subdifferential alignment on active blocks
    and cone-restricted dual-gauge bound on inactive ones.

    Atoms resting on a cone wall carry an extra nonnegative normal-cone
    coefficient per touched wall. In constrained mode the multipliers and
    those coefficients are fit together by least squares from the
    active-block gradient conditions; in penalized mode the multipliers are
    explicit for the squared loss and only the coefficients are fit. The
    most negative coefficient is reported.
    """
    atom_eps = _atom_eps(solution.objective)
    k = program.k
    n = program.dataset.n
    K = len(program.cells_used)
    W = np.vstack([solution.u, solution.v]) if K else np.zeros((0, k))

    inward, touched = _touched_walls(program, W)

    # on live block b: grad g(x_b) = A_b^T mult + sum of beta nrm over the
    # inward normals nrm of its touched walls, with unknowns (mult, beta)
    live = np.flatnonzero(_live_blocks(program, W, atom_eps)).tolist()
    walls = [(r, nrm) for r, b in enumerate(live) for nrm in inward[b, touched[b]]]
    G = np.zeros((k * len(live), n + len(walls)))
    gvec = np.zeros(k * len(live))
    for r, blk in enumerate(live):
        g = program.gauges[blk % K]
        gvec[r * k : (r + 1) * k] = g.kappa**2 * (g.Q @ W[blk]) / g(W[blk])
        G[r * k : (r + 1) * k, :n] = program.A[:, blk * k : (blk + 1) * k].T
    for c, (r, nrm) in enumerate(walls):
        G[r * k : (r + 1) * k, n + c] = nrm
    if program.mode == "penalized":
        mult = (program.y - program.A @ W.ravel()) / n / program.lam
        beta = np.linalg.lstsq(G[:, n:], gvec - G[:, :n] @ mult, rcond=None)[0]
    else:
        sol_ls = np.linalg.lstsq(G, gvec, rcond=None)[0]
        mult, beta = sol_ls[:n], sol_ls[n:]
    normal_min = float(np.min(beta)) if walls else 0.0
    align = float(np.max(np.abs(G @ np.concatenate([mult, beta]) - gvec), initial=0.0))

    # support of q = A_blk^T mult over the cone intersected with the unit
    # gauge ball, on every inactive block
    inactive = [blk for blk in range(2 * K) if blk not in live]
    price = cone_price(program, inactive, (mult @ program.A).reshape(2 * K, k)[inactive])
    return {
        "multipliers": mult,
        "alignment_residual": align,
        "inactive_dual_bound": float(np.max(price, initial=0.0)),
        "normal_multiplier_min": normal_min,
    }
