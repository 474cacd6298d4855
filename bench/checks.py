"""Correctness checks on benchmark outputs, computed apart from the program.

Each check recomputes what it needs with plain numpy from the raw inputs
(data points, extracted atoms, the written network) and compares with the
program's output. None compares against a stored copy of earlier output.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

# Off-wall test: an atom whose activation at some datapoint is within this
# (relative) distance of zero sits on a cell wall.
WALL_TOL = 1e-9
# Two rays count as one when their angle is below this (the solver-output
# clustering tolerance of the package).
RAY_ANGLE_TOL = 1e-6


def lift(points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.hstack([points, np.ones((points.shape[0], 1))])


def relu(t):
    return np.maximum(t, 0.0)


def is_generic(points: np.ndarray, min_sv: float = 1e-8) -> bool:
    """Every d+1 lifted points have smallest singular value at least min_sv."""
    from itertools import combinations

    lifted = lift(points)
    n, k = lifted.shape
    size = min(n, k)
    for idx in combinations(range(n), size):
        if np.linalg.svd(lifted[list(idx)], compute_uv=False)[-1] < min_sv:
            return False
    return True


def generic_dataset(rng, n: int, d: int, min_sv: float = 1e-8):
    """Gaussian points and targets, redrawn until is_generic(points, min_sv)."""
    while True:
        points, targets = rng.normal(size=(n, d)), rng.normal(size=n)
        if is_generic(points, min_sv):
            return points, targets


# ---------------------------------------------------------------- cells


def cell_count_formula(n: int, d: int) -> int:
    """Region count of n generic central hyperplanes in R^{d+1} (Cover 1965)."""
    return 2 * sum(math.comb(n - 1, k) for k in range(d + 1))


def _patterns(lifted: np.ndarray, dirs: np.ndarray) -> set:
    vals = dirs @ lifted.T
    return {tuple(int(s) for s in row) for row in np.where(vals > 0, 1, -1)}


def interior_directions(lifted: np.ndarray) -> np.ndarray:
    """One direction strictly inside every cell, for d <= 2.

    d = 1: the midpoints of the arcs between consecutive zero angles of the
    lines. d = 2: every region of generic great circles has a vertex
    x_i x x_j, and the four points just off a vertex reach the four regions
    that meet there.
    """
    k = lifted.shape[1]
    if k == 2:
        normal = np.arctan2(lifted[:, 1], lifted[:, 0])
        zeros = np.sort(np.concatenate([normal + np.pi / 2, normal - np.pi / 2])
                        % (2 * np.pi))
        mids = 0.5 * (zeros + np.append(zeros[1:], zeros[0] + 2 * np.pi))
        return np.stack([np.cos(mids), np.sin(mids)], axis=1)
    if k != 3:
        raise ValueError("interior directions are exact for d <= 2 only")
    n = lifted.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            v = np.cross(lifted[i], lifted[j])
            v /= np.linalg.norm(v)
            pinv = np.linalg.pinv(lifted[[i, j]])
            others = np.delete(lifted, [i, j], axis=0)
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    off = pinv @ np.array([s1, s2])
                    if others.shape[0]:
                        room = np.min(np.abs(others @ v))
                        off *= 0.5 * room / max(np.max(np.abs(others @ off)), room)
                    else:
                        off *= 1e-3 / np.linalg.norm(off)
                    out.extend([v + off, -v - off])
    return np.array(out)


def check_cells(points, signs, witnesses, rng, n_random: int = 20_000) -> list:
    """Cell count law, strict witnesses and sampled sign patterns."""
    lifted = lift(points)
    n, k = lifted.shape
    d = k - 1
    problems = []
    enumerated = {tuple(int(v) for v in s) for s in signs}
    want = cell_count_formula(n, d)
    if len(signs) != want:
        problems.append(f"{len(signs)} cells, formula gives {want} (n={n}, d={d})")
    if len(enumerated) != len(signs):
        problems.append("repeated sign patterns")
    for s, w in zip(signs, witnesses):
        margins = np.asarray(s, dtype=float) * (lifted @ np.asarray(w, dtype=float))
        if not np.min(margins) > 0.0:
            problems.append(f"witness not strictly inside pattern {tuple(s)}")
            break
    sampled = _patterns(lifted, rng.standard_normal((n_random, k)))
    if not sampled <= enumerated:
        problems.append(f"{len(sampled - enumerated)} sampled patterns not enumerated")
    if d <= 2:
        exact = _patterns(lifted, interior_directions(lifted))
        if exact != enumerated:
            problems.append(
                f"enumerated cells differ from the exact cells: "
                f"{len(exact - enumerated)} missing, {len(enumerated - exact)} extra"
            )
    return problems


# ---------------------------------------------------------------- solves


def weights(kind: str, lifted: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """1-homogeneous weight of each direction: TV norm or label-noise rms."""
    dirs = np.atleast_2d(dirs)
    if kind == "tv":
        return np.linalg.norm(dirs, axis=1)
    if kind == "label-noise":
        return np.sqrt(np.mean(relu(lifted @ dirs.T) ** 2, axis=0))
    raise ValueError(kind)


def check_interpolation(points, targets, dirs, masses, tol: float = 1e-5) -> list:
    y = np.asarray(targets, dtype=float)
    pred = np.zeros_like(y)
    if len(masses):
        pred = relu(lift(points) @ np.atleast_2d(dirs).T) @ np.asarray(masses)
    err = float(np.max(np.abs(pred - y)))
    if err > tol * (1.0 + float(np.max(np.abs(y)))):
        return [f"measure misses the targets by {err:.3e}"]
    return []


def check_objective(kind, points, dirs, masses, objective, rtol: float = 1e-4) -> list:
    """The weighted mass of the atoms equals the solver's objective."""
    cost = 0.0
    if len(masses):
        cost = float(np.sum(np.abs(masses) * weights(kind, lift(points), dirs)))
    if abs(cost - objective) > rtol * max(1.0, abs(objective)):
        return [f"atoms cost {cost:.9g}, solver objective {objective:.9g}"]
    return []


def check_one_ray_per_cell(points, dirs) -> list:
    """Off the walls, no sign pattern holds two distinct rays."""
    lifted = lift(points)
    dirs = np.atleast_2d(dirs)
    if dirs.shape[0] == 0:
        return []
    vals = dirs @ lifted.T
    scale = np.linalg.norm(lifted, axis=1) * np.linalg.norm(dirs, axis=1)[:, None]
    off_wall = np.all(np.abs(vals) > WALL_TOL * scale, axis=1)
    by_cell: dict = {}
    for r in np.flatnonzero(off_wall):
        key = tuple(np.where(vals[r] > 0, 1, -1))
        u = dirs[r] / np.linalg.norm(dirs[r])
        rays = by_cell.setdefault(key, [])
        if all(np.arccos(np.clip(u @ v, -1.0, 1.0)) > RAY_ANGLE_TOL for v in rays):
            rays.append(u)
    crowded = [k for k, rays in by_cell.items() if len(rays) > 1]
    if crowded:
        return [f"{len(crowded)} cells hold more than one ray off the walls"]
    return []


def dual_scale_d1(kind: str, lifted: np.ndarray, lam: np.ndarray) -> float:
    """Exact sup over the circle of |sum_i lam_i relu(<x~_i, t>)| / w(t), d = 1.

    On each arc between consecutive zero angles the active set is fixed, so
    the numerator is <q, t> with q = sum over active i of lam_i x~_i. For
    the TV weight the sup over the arc is at an end or at +-q/|q|; for the
    label-noise weight sqrt(t^T Q t) it is at an end or at +-Q^{-1} q, and a
    rank-one Q (one active point) makes the ratio constant.
    """
    n = lifted.shape[0]
    normal = np.arctan2(lifted[:, 1], lifted[:, 0])
    zeros = np.sort(np.concatenate([normal + np.pi / 2, normal - np.pi / 2])
                    % (2 * np.pi))
    ends = np.append(zeros[1:], zeros[0] + 2 * np.pi)
    best = 0.0
    for a0, a1 in zip(zeros, ends):
        mid = 0.5 * (a0 + a1)
        active = lifted @ np.array([np.cos(mid), np.sin(mid)]) > 0
        if not np.any(active):
            continue
        q = lam[active] @ lifted[active]
        if kind == "tv":
            Q = np.eye(2)
        else:
            Q = lifted[active].T @ lifted[active] / n
            if np.count_nonzero(active) == 1:
                best = max(best, abs(float(lam[active][0])) * math.sqrt(n))
                continue
        angles = [a0, a1]
        stat = np.linalg.solve(Q, q)
        for v in (stat, -stat):
            phi = math.atan2(v[1], v[0]) % (2 * np.pi)
            for p in (phi, phi + 2 * np.pi):
                if a0 <= p <= a1:
                    angles.append(p)
        for p in angles:
            t = np.array([math.cos(p), math.sin(p)])
            best = max(best, abs(float(q @ t)) / math.sqrt(float(t @ Q @ t)))
    return best


def check_dual_bound_d1(kind, points, targets, multipliers, objective,
                        rtol: float = 1e-5) -> list:
    """Weak duality: y.lam / sup-ratio is a lower bound; it must meet the objective.

    Any multiplier vector gives a valid bound once scaled to exact dual
    feasibility, so the multipliers may come from anywhere; the check fails
    when the bound is loose or exceeds the objective.
    """
    lifted = lift(points)
    lam = np.asarray(multipliers, dtype=float)
    scale = dual_scale_d1(kind, lifted, lam)
    if scale <= 0.0:
        return ["dual candidate is zero"]
    bound = float(np.asarray(targets) @ lam) / scale
    if abs(objective - bound) > rtol * max(1.0, abs(objective)):
        return [f"dual lower bound {bound:.9g} does not meet objective {objective:.9g}"]
    return []


# ---------------------------------------------------------------- training


def network_loss(net: dict, points, targets) -> float:
    """Noise-free train loss (1/n) sum 1/2 (f(x_i) - y_i)^2 of a width-m network."""
    A, b, c = (np.asarray(net[key], dtype=float) for key in ("A", "b", "c"))
    A = A.reshape(c.shape[0], -1)
    f = relu(np.atleast_2d(points) @ A.T + b) @ c / c.shape[0]
    return 0.5 * float(np.mean((f - np.asarray(targets)) ** 2))


def network_lambda(net: dict, points) -> float:
    """Implicit regulariser: mean over data and neurons of |grad phi|^2."""
    A, b, c = (np.asarray(net[key], dtype=float) for key in ("A", "b", "c"))
    A = A.reshape(c.shape[0], -1)
    X = np.atleast_2d(points)
    pre = X @ A.T + b
    sq = 1.0 + np.sum(X**2, axis=1)
    return float(np.mean(c**2 * sq[:, None] * (pre >= 0.0) + relu(pre) ** 2))


def network_rays(net: dict, tau_angle: float, mass_rel: float = 1e-4):
    """Mass-weighted ray directions of a network after single-linkage clustering."""
    A, b, c = (np.asarray(net[key], dtype=float) for key in ("A", "b", "c"))
    theta = np.hstack([A.reshape(c.shape[0], -1), b[:, None]])
    norms = np.linalg.norm(theta, axis=1)
    mass = c * norms / c.shape[0]
    keep = np.abs(mass) > mass_rel * np.sum(np.abs(mass))
    dirs = theta[keep] / norms[keep][:, None]
    w = np.abs(mass[keep])
    close = np.arccos(np.clip(dirs @ dirs.T, -1.0, 1.0)) <= tau_angle
    seen = np.zeros(dirs.shape[0], dtype=bool)
    reps = []
    for start in range(dirs.shape[0]):
        if seen[start]:
            continue
        seen[start] = True
        group, todo = [start], [start]
        while todo:
            new = np.flatnonzero(close[todo.pop()] & ~seen)
            seen[new] = True
            group.extend(new)
            todo.extend(new)
        rep = (w[group, None] * dirs[group]).sum(axis=0)
        reps.append(rep / np.linalg.norm(rep))
    return np.array(reps).reshape(-1, theta.shape[1])


def check_trace_matches_network(trace: dict, net: dict, points, targets) -> list:
    """The trace's last loss and Lambda equal those recomputed from the network."""
    problems = []
    loss = network_loss(net, points, targets)
    if abs(trace["loss"][-1] - loss) > 1e-8 * max(loss, 1e-12) + 1e-15:
        problems.append(f"trace loss {trace['loss'][-1]:.9g}, network loss {loss:.9g}")
    lam = network_lambda(net, points)
    if abs(trace["lambda"][-1] - lam) > 1e-8 * max(lam, 1e-12):
        problems.append(f"trace Lambda {trace['lambda'][-1]:.9g}, network {lam:.9g}")
    return problems


def penalized_objective(points, targets, dirs, masses, lam: float) -> float:
    """(1/n) sum 1/2 (f - y)^2 + lam * sum |z| for a TV Radon measure."""
    pred = relu(lift(points) @ np.atleast_2d(dirs).T) @ np.asarray(masses)
    return 0.5 * float(np.mean((pred - np.asarray(targets)) ** 2)) + lam * float(
        np.sum(np.abs(masses)))


def check_gd_against_optimum(net: dict, points, targets, decay: float,
                             opt_dirs, opt_masses, opt_objective: float,
                             tau_angle: float = 5e-2, max_angle: float = 1e-2) -> list:
    """Criterion 07: objective within 5 % of the convex optimum, same directions.

    The convex problem uses weight 2*decay, matching norm-squared decay at
    balancedness; norm-squared decay is never below it.
    """
    problems = []
    mine = penalized_objective(points, targets, opt_dirs, opt_masses, 2.0 * decay)
    if abs(mine - opt_objective) > 1e-4 * opt_objective:
        problems.append(f"optimum's atoms cost {mine:.9g}, solver says {opt_objective:.9g}")
    A, b, c = (np.asarray(net[key], dtype=float) for key in ("A", "b", "c"))
    reg = decay / c.shape[0] * float(np.sum(A**2) + np.sum(b**2) + np.sum(c**2))
    gd = network_loss(net, points, targets) + reg
    if not opt_objective * (1 - 1e-6) <= gd <= 1.05 * opt_objective:
        problems.append(f"GD objective {gd:.6g} not within 5 % above {opt_objective:.6g}")
    rays = network_rays(net, tau_angle)
    opt_dirs = np.atleast_2d(opt_dirs)
    big = np.abs(opt_masses) > 1e-3 * np.sum(np.abs(opt_masses))
    angles = np.arccos(np.clip(rays @ opt_dirs.T, -1.0, 1.0))
    if rays.shape[0] == 0 or np.max(np.min(angles, axis=1)) > max_angle:
        problems.append("a trained ray is far from every optimum direction")
    elif np.max(np.min(angles[:, big], axis=0)) > max_angle:
        problems.append("an optimum direction has no trained ray")
    return problems


def interpolation_index(loss, tol: float = 1e-4, patience: int = 100):
    """First record of the first run of `patience` records below `tol`."""
    run = 0
    for i, v in enumerate(loss):
        run = run + 1 if v < tol else 0
        if run >= patience:
            return i - run + 1
    return None


def check_label_noise(trace: dict, net: dict, points, targets) -> list:
    """Criterion 08: interpolation, then Lambda and the support both fall."""
    start = interpolation_index(trace["loss"])
    if start is None or network_loss(net, points, targets) >= 1e-4:
        return ["label-noise run does not interpolate"]
    lam = np.asarray(trace["lambda"][start:])
    supp = np.asarray(trace["support"][start:])
    q = max(1, len(lam) // 5)
    problems = []
    if not np.mean(lam[-q:]) < np.mean(lam[:q]):
        problems.append("Lambda does not fall after interpolation")
    if not supp[-1] < supp[0]:
        problems.append(f"support does not fall after interpolation ({supp[0]} -> {supp[-1]})")
    own = network_rays(net, 5e-2).shape[0]
    if own != supp[-1]:
        problems.append(f"trace support {supp[-1]}, network has {own} rays")
    return problems
