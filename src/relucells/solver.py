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
potential. The constrained problem is solved by product-space
Douglas-Rachford splitting (gauge prox / affine projection / cone
projection, in closed form on the d = 1 sectors and by Dykstra otherwise);
the penalized variant swaps the affine projection for a gradient step on
the squared loss (Davis-Yin three-operator splitting).

The module also exposes the l1 linear program over fixed sphere
directions, solved with the in-house simplex so that basic solutions give
the at-most-n support bound for free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _simplex
from .arrangement import CellDecomposition
from .errors import InfeasibleError, PreconditionError
from .model import Dataset, RadonMeasure, relu
from .potentials import PotentialKind, cell_gauge, weight

ATOM_EPS_REL = 1e-6

# Stopping rule: the primal residual (constrained) or the scaled prox gap
# (penalized) is below TOL_FEAS, and the objective moved by at most TOL_OBJ
# (relative) over the last OBJ_WINDOW iterations, looked at every
# CHECK_EVERY iterations.
TOL_FEAS = 1e-7
TOL_OBJ = 1e-9
OBJ_WINDOW = 100
CHECK_EVERY = 10
STEP = 1.0  # gauge prox step of the constrained splitting
RELAX = 0.85  # 0.5 is plain Douglas-Rachford
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_CYCLES = 500


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
    # d = 1 only: (edges, inward edge normals), each (2K, 2, 2)
    sectors: tuple | None = field(repr=False)

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
    sectors = None
    if k == 2:
        witnesses = np.array(
            [decomp.cells[ci].witness for ci in used] * 2, dtype=float
        ).reshape(2 * K, k)
        sectors = _sector_geometry(signs, normals, witnesses)
    return FiniteProgram(
        dataset, decomp, kind, mode, lam, used, gauges, A,
        dataset.targets.copy(), signs, normals, sectors,
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
    """Vectorized prox of the per-block gauges g_b(x) = kappa_b sqrt(x^T Q_b x)."""

    def __init__(self, gauges):
        blocks = list(gauges) * 2  # u blocks then v blocks share gauges
        self.kappa = np.array([g.kappa for g in blocks])
        self.identity = all(
            g.kappa == 1.0 and np.allclose(g.Q, np.eye(g.Q.shape[0])) for g in blocks
        )
        if not self.identity:
            evals, evecs = [], []
            for g in blocks:
                lam, U = np.linalg.eigh(g.Q)
                evals.append(np.maximum(lam, 0.0))
                evecs.append(U)
            self.evals = np.array(evals)  # (B, k)
            self.evecs = np.array(evecs)  # (B, k, k), columns are eigenvectors

    def value(self, W: np.ndarray) -> float:
        if self.identity:
            return float(np.sum(np.linalg.norm(W, axis=1)))
        xi = np.einsum("bkj,bk->bj", self.evecs, W)
        return float(np.sum(self.kappa * np.sqrt(np.sum(self.evals * xi**2, axis=1))))

    def prox(self, W: np.ndarray, t: float) -> np.ndarray:
        tau = t * self.kappa
        if self.identity:
            r = np.linalg.norm(W, axis=1)
            shrink = np.maximum(0.0, 1.0 - tau / np.maximum(r, 1e-300))
            return W * shrink[:, None]
        xi0 = np.einsum("bkj,bk->bj", self.evecs, W)
        lam = self.evals
        pos = lam > 0.0
        r0 = np.sqrt(np.sum(lam * xi0**2, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            g0 = np.sum(
                np.where(pos, xi0**2 / np.maximum(lam, 1e-300), 0.0), axis=1
            ) / np.maximum(tau, 1e-300) ** 2
        need = (r0 > 0.0) & (tau > 0.0) & (g0 > 1.0)
        # bisection for rho solving sum_j lam_j xi0_j^2 / (rho + tau lam_j)^2 = 1
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
            pos,
            rho[:, None] / np.maximum(rho[:, None] + tl, 1e-300),
            1.0,
        )
        factor = np.where(tau[:, None] > 0.0, factor, 1.0)
        xi = xi0 * factor
        return np.einsum("bkj,bj->bk", self.evecs, xi)


def project_cones(
    W: np.ndarray,
    signs: np.ndarray,
    normals: np.ndarray,
    tol: float = DYKSTRA_TOL,
    max_cycles: int = DYKSTRA_MAX_CYCLES,
) -> np.ndarray:
    """Euclidean projection of each block row onto its cell cone by Dykstra
    cyclic half-space projections."""
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


def _sector_geometry(
    signs: np.ndarray, normals: np.ndarray, witnesses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary rays of the planar cones {v : signs_i <v, n_i> >= 0}.

    Returns (edges, inward), each (B, 2, 2): two unit edge vectors per
    block and each edge rotated a quarter turn into the cone. Each
    half-plane constrains the direction angle to an arc of width pi around
    the angle of its signed normal; measured from an interior witness all
    offsets are below pi/2 in magnitude, so the arcs intersect without
    wraparound.
    """
    gam = np.arctan2(signs * normals[None, :, 1], signs * normals[None, :, 0])
    ref = np.arctan2(witnesses[:, 1], witnesses[:, 0])[:, None]
    delta = np.angle(np.exp(1j * (gam - ref)))
    lo = ref[:, 0] + np.max(delta, axis=1) - np.pi / 2
    hi = ref[:, 0] + np.min(delta, axis=1) + np.pi / 2
    e1 = np.stack([np.cos(lo), np.sin(lo)], axis=1)
    e2 = np.stack([np.cos(hi), np.sin(hi)], axis=1)
    edges = np.stack([e1, e2], axis=1)
    inward = np.stack(
        [
            np.stack([-e1[:, 1], e1[:, 0]], axis=1),
            np.stack([e2[:, 1], -e2[:, 0]], axis=1),
        ],
        axis=1,
    )
    return edges, inward


def _project_sectors(
    W: np.ndarray, edges: np.ndarray, inward: np.ndarray
) -> np.ndarray:
    e1, e2 = edges[:, 0], edges[:, 1]
    # interior iff on the positive side of both inward edge normals
    inside = (np.einsum("bk,bk->b", W, inward[:, 0]) >= 0.0) & (
        np.einsum("bk,bk->b", W, inward[:, 1]) >= 0.0
    )
    p1 = np.maximum(np.einsum("bk,bk->b", W, e1), 0.0)[:, None] * e1
    p2 = np.maximum(np.einsum("bk,bk->b", W, e2), 0.0)[:, None] * e2
    d1 = np.sum((W - p1) ** 2, axis=1)
    d2 = np.sum((W - p2) ** 2, axis=1)
    proj = np.where((d1 <= d2)[:, None], p1, p2)
    return np.where(inside[:, None], W, proj)


def cone_violation(
    W: np.ndarray, signs: np.ndarray, normals: np.ndarray
) -> float:
    vals = signs * (W @ normals.T)
    return float(max(0.0, -np.min(vals))) if vals.size else 0.0


def _split(program: FiniteProgram, w: np.ndarray) -> np.ndarray:
    return w.reshape(program.n_blocks, program.k)


def _project_blocks(
    program: FiniteProgram, W: np.ndarray, blocks: slice = slice(None)
) -> np.ndarray:
    """Project the rows of W onto the cones of the given blocks: in closed
    form on the sectors at d = 1, by Dykstra otherwise."""
    if program.sectors is not None:
        edges, inward = program.sectors
        return _project_sectors(W, edges[blocks], inward[blocks])
    return project_cones(W, program.signs[blocks], program.normals)


def solve(program: FiniteProgram, config: SolverConfig | None = None) -> Solution:
    """Solve the finite program by operator splitting."""
    config = config or SolverConfig()
    if program.n_blocks == 0:
        # no cell sees any datapoint; only y = 0 is representable
        if np.max(np.abs(program.y)) > TOL_FEAS:
            raise InfeasibleError("no active cells but nonzero targets")
        z = np.zeros((0, program.k))
        return Solution(z, z, (), 0.0, 0.0, 0, True, program.mode,
                        program.lam, {})
    if program.mode == "constrained":
        return _solve_constrained(program, config)
    return _solve_penalized(program, config)


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


def _solve_constrained(program: FiniteProgram, config: SolverConfig) -> Solution:
    A, y = program.A, program.y
    AAT = A @ A.T
    AAT_pinv = np.linalg.pinv(AAT, rcond=1e-12)
    M = A.T @ AAT_pinv

    # feasibility pre-pass: y must lie in the range of A
    w_min = M @ y
    gap = np.linalg.norm(A @ w_min - y)
    if gap > 1e-8 * (1.0 + np.linalg.norm(y)):
        raise InfeasibleError(
            f"targets are not interpolable by the active cells (gap {gap:.3e})"
        )

    def proj_affine(w):
        return w - M @ (A @ w - y)

    prox_g = _GaugeProx(program.gauges)

    w0 = _initial(program, config)
    z1 = w0.copy()
    z2 = w0.copy()
    z3 = w0.copy()
    r = 2.0 * RELAX
    yscale = 1.0 + float(np.linalg.norm(y))

    obj_hist: list[float] = []
    best = None
    it = 0
    converged = False
    while it < config.max_iters:
        it += 1
        x1 = prox_g.prox(_split(program, z1), STEP).ravel()
        x2 = proj_affine(z2)
        x3 = _project_blocks(program, _split(program, z3)).ravel()
        # relaxed product-space Douglas-Rachford step
        m = (2.0 * (x1 + x2 + x3) - (z1 + z2 + z3)) / 3.0
        z1 += r * (m - x1)
        z2 += r * (m - x2)
        z3 += r * (m - x3)

        if it % CHECK_EVERY == 0 or it == config.max_iters:
            obj = prox_g.value(_split(program, x3))
            res = float(np.linalg.norm(A @ x3 - y)) / yscale
            obj_hist.append(obj)
            if best is None or (res, obj) < best[:2]:
                best = (res, obj, x3.copy())
            if res < TOL_FEAS and _objective_settled(obj_hist):
                converged = True
                best = (res, obj, x3.copy())
                break

    res, obj, x = best
    W = _split(program, x)
    K = len(program.cells_used)
    diag = {
        "step": STEP,
        "cone_violation": cone_violation(W, program.signs, program.normals),
        "objective_checks": len(obj_hist),
    }
    return Solution(
        W[:K].copy(), W[K:].copy(), program.cells_used, obj, res, it,
        converged, program.mode, program.lam, diag,
    )


def _solve_penalized(program: FiniteProgram, config: SolverConfig) -> Solution:
    """Davis-Yin splitting: smooth data term + gauge prox + cone projection."""
    A, y, lam = program.A, program.y, program.lam
    n = program.dataset.n
    L = float(np.linalg.norm(A, 2) ** 2) / n
    t = 1.0 / max(L, 1e-12)
    prox_g = _GaugeProx(program.gauges)

    def grad_h(w):
        return A.T @ (A @ w - y) / n

    z = _initial(program, config)
    obj_hist: list[float] = []
    converged = False
    it = 0
    xB = z.copy()
    while it < config.max_iters:
        it += 1
        xB = _project_blocks(program, _split(program, z)).ravel()
        xA = prox_g.prox(
            _split(program, 2.0 * xB - z - t * grad_h(xB)), t * lam
        ).ravel()
        z += xA - xB

        if it % CHECK_EVERY == 0 or it == config.max_iters:
            data = 0.5 * float(np.sum((A @ xB - y) ** 2)) / n
            reg = prox_g.value(_split(program, xB))
            obj_hist.append(data + lam * reg)
            gap = float(np.linalg.norm(xA - xB)) / (t * (1.0 + np.linalg.norm(xB)))
            if gap < TOL_FEAS and _objective_settled(obj_hist):
                converged = True
                break

    W = _split(program, xB)
    K = len(program.cells_used)
    data = 0.5 * float(np.sum((A @ xB - y) ** 2)) / n
    reg = prox_g.value(W)
    diag = {
        "step": t,
        "data_term": data,
        "regulariser": reg,
        "cone_violation": cone_violation(W, program.signs, program.normals),
    }
    return Solution(
        W[:K].copy(), W[K:].copy(), program.cells_used, data + lam * reg,
        float(np.linalg.norm(A @ xB - y)) / (1.0 + np.linalg.norm(y)),
        it, converged, program.mode, program.lam, diag,
    )


def _atom_eps(solution: Solution) -> float:
    """Norm below which a block carries no atom."""
    return ATOM_EPS_REL * max(1.0, abs(solution.objective))


def extract_radon(program: FiniteProgram, solution: Solution) -> RadonMeasure:
    """Read off the sphere atoms: u_s -> (+||u_s||, u_s/||u_s||), v_s negated."""
    atom_eps = _atom_eps(solution)
    dirs, masses = [], []
    for u_s, v_s in zip(solution.u, solution.v):
        nu, nv = np.linalg.norm(u_s), np.linalg.norm(v_s)
        if nu > atom_eps and nv > atom_eps:
            # same-ray cancellation leftover from the splitting iterates:
            # the net atom stays on the shared ray with signed mass nu - nv
            cosang = np.clip((u_s @ v_s) / (nu * nv), -1.0, 1.0)
            if np.arccos(cosang) < 1e-3:
                ray = u_s + v_s
                ray /= np.linalg.norm(ray)
                if abs(nu - nv) > atom_eps:
                    dirs.append(ray)
                    masses.append(nu - nv)
                continue
        if nu > atom_eps:
            dirs.append(u_s / nu)
            masses.append(nu)
        if nv > atom_eps:
            dirs.append(v_s / nv)
            masses.append(-nv)
    if not dirs:
        return RadonMeasure.empty(program.dataset.d)
    dirs = np.array(dirs)
    masses = np.array(masses)
    # inert rays (no activation at any datapoint) predict nothing and cost
    # nothing under data-dependent gauges; splitting iterates may leave
    # arbitrary mass there, so they are stripped
    act = relu(program.decomposition.lifted @ dirs.T)
    live = np.max(act, axis=0) > 1e-12
    if not np.any(live):
        return RadonMeasure.empty(program.dataset.d)
    return RadonMeasure(dirs[live], masses[live])


@dataclass(frozen=True)
class LPInstance:
    """min ||z||_1 s.t. A z = y with A_{i,s} = relu(<x~_i, theta_s>)."""

    A: np.ndarray
    y: np.ndarray

    @classmethod
    def from_directions(
        cls, dataset: Dataset, directions: np.ndarray,
        kind: PotentialKind | None = None,
    ) -> "LPInstance":
        """Assemble the interpolation LP columns from candidate directions.

        With a potential kind given, directions are rescaled onto the unit
        sphere of its weight so that the optimal l1 mass equals the weighted
        objective; otherwise directions are used as provided (Euclidean
        normalization matches the total-variation weight).
        """
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        if kind is not None:
            w = np.array([weight(kind, th) for th in dirs])
            if np.any(w <= 0.0):
                raise PreconditionError(
                    "cannot weight-normalize a direction with zero weight"
                )
            dirs = dirs / w[:, None]
        A = relu(dataset.lifted @ dirs.T)
        return cls(A, dataset.targets.copy())

    def save_csv(self, a_path, y_path) -> None:
        np.savetxt(a_path, self.A, delimiter=",")
        np.savetxt(y_path, self.y, delimiter=",")

    @classmethod
    def load_csv(cls, a_path, y_path) -> "LPInstance":
        A = np.atleast_2d(np.loadtxt(a_path, delimiter=","))
        y = np.atleast_1d(np.loadtxt(y_path, delimiter=","))
        return cls(A, y)


def lp_l1(instance: LPInstance) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the l1 program by two-phase simplex; returns (z, support, objective)."""
    z, obj = _simplex.lp_min_l1(instance.A, instance.y)
    support = np.flatnonzero(np.abs(z) > 1e-9 * max(1.0, float(np.max(np.abs(z)))))
    return z, support, obj


def optimality_certificate(program: FiniteProgram, solution: Solution) -> dict:
    """Diagnostic KKT check: gauge-subdifferential alignment on active blocks
    and cone-restricted dual-gauge bound on inactive ones.

    Multipliers are fit by least squares from the active-block gradient
    conditions. Atoms resting on a cone edge carry an extra nonnegative
    normal-cone coefficient per touched edge; those coefficients enter the
    fit as unknowns and their most negative value is reported.
    """
    atom_eps = _atom_eps(solution)
    k = program.k
    K = len(program.cells_used)
    W = np.vstack([solution.u, solution.v]) if K else np.zeros((0, k))
    lam_pen = program.lam if program.mode == "penalized" else 1.0

    out_normals: dict[int, np.ndarray] = {}
    if program.sectors is not None:
        inward = program.sectors[1]
        for blk in range(2 * K):
            x = W[blk]
            scale = max(1.0, float(np.linalg.norm(x)))
            touched = [
                -inward[blk, j]
                for j in range(2)
                if abs(float(inward[blk, j] @ x)) <= 1e-6 * scale
            ]
            if touched:
                out_normals[blk] = np.array(touched)

    rows_G, rhs_g = [], []
    grads = {}
    for blk in range(2 * K):
        g = program.gauges[blk % K]
        x = W[blk]
        nx = g(x)
        if np.linalg.norm(x) <= atom_eps or nx <= 0:
            continue
        grad = g.kappa**2 * (g.Q @ x) / nx
        grads[blk] = grad
        Ablk = program.A[:, blk * k : (blk + 1) * k]  # already sign-carrying
        rows_G.append((blk, Ablk / lam_pen))
        rhs_g.append(grad)

    n_beta = sum(len(out_normals.get(blk, ())) for blk, _ in rows_G)
    normal_min = 0.0
    if program.mode == "penalized":
        # multipliers are explicit for the squared loss
        resid = program.A @ np.concatenate([solution.u.ravel(), solution.v.ravel()])
        mult = -(resid - program.y) / program.dataset.n / program.lam
        betas = {}
    elif rows_G:
        n = program.dataset.n
        G = np.zeros((k * len(rows_G), n + n_beta))
        gvec = np.concatenate(rhs_g)
        col = n
        beta_cols: dict[int, slice] = {}
        for r, (blk, Ablk) in enumerate(rows_G):
            G[r * k : (r + 1) * k, :n] = Ablk.T
            for nrm in out_normals.get(blk, ()):  # grad = A^T mult - beta nrm
                G[r * k : (r + 1) * k, col] = -nrm
                beta_cols.setdefault(blk, slice(col, col))
                beta_cols[blk] = slice(beta_cols[blk].start, col + 1)
                col += 1
        sol_ls, *_ = np.linalg.lstsq(G, gvec, rcond=None)
        mult = sol_ls[:n]
        betas = {blk: sol_ls[s] for blk, s in beta_cols.items()}
        if n_beta:
            normal_min = float(min(np.min(b) for b in betas.values()))
    else:
        mult = np.zeros(program.dataset.n)
        betas = {}

    align = 0.0
    for blk, grad in grads.items():
        Ablk = program.A[:, blk * k : (blk + 1) * k]
        r = Ablk.T @ mult - grad
        for nrm, beta in zip(out_normals.get(blk, ()), betas.get(blk, ())):
            r -= beta * nrm
        align = max(align, float(np.max(np.abs(r))))

    dual_bound = 0.0
    for blk in range(2 * K):
        if blk in grads:
            continue
        g = program.gauges[blk % K]
        Ablk = program.A[:, blk * k : (blk + 1) * k]
        q = Ablk.T @ mult
        # support of q over the cone intersected with the unit gauge ball
        qc = _project_blocks(program, q[None, :], slice(blk, blk + 1))[0]
        nq = np.linalg.norm(qc)
        if nq > 1e-12:
            v = qc / nq  # exact maximizer direction for the TV gauge
            gv = g(v)
            if gv > 1e-12:
                dual_bound = max(dual_bound, float(q @ v) / gv)
    return {
        "multipliers": mult,
        "alignment_residual": align,
        "inactive_dual_bound": dual_bound,
        "normal_multiplier_min": normal_min,
    }
