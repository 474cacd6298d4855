"""Independent brute-force oracles used by the test suite.

Everything here is written against the raw problem statements with its own
relu/weight arithmetic, so package bugs cannot cancel out. The brute-force
objective oracles are only valid for d = 1 (directions live on the circle).
The reference loops at the end keep the plain per-step and per-pair forms of
code the package runs vectorised, for exact-equality checks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


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


def grid_orbit_minimum(a, b, c, points, npts: int = 10_000) -> float:
    """Two-stage geometric grid search of the raw implicit potential over
    the rescaling orbit (lam*a, lam*b, c/lam)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sq = 1.0 + np.sum(points**2, axis=1)

    def values(lams):
        pre = lams[:, None] * (points @ np.atleast_1d(a) + b)
        return np.mean(np.maximum(pre, 0.0) ** 2, axis=1) + (
            c / lams
        ) ** 2 * np.mean(sq * (pre >= 0.0), axis=1)

    coarse = np.geomspace(1e-3, 1e3, npts // 10)
    cv = values(coarse)
    t0 = float(coarse[int(np.argmin(cv))])
    fine = np.geomspace(t0 / 2.0, t0 * 2.0, npts - npts // 10)
    return float(min(cv.min(), values(fine).min()))


def sgd_label_noise_reference(dataset, config):
    """Label-noise SGD as a plain per-step loop, one scalar draw per step.

    Shares initialisation, streams and the trace record with the package so
    that the step loop and its random draws are what a comparison checks.
    """
    from relucells.model import ParticleNetwork
    from relucells.trainer import (
        TrainConfig, _check_divergence, _finish_trace, _init_network,
        _record, _streams, objective_and_grads,
    )

    rng_init, rng_sample, rng_noise = _streams(config.seed)
    net = _init_network(config, dataset.d, rng_init)
    A, b, c = net.A.copy(), net.b.copy(), net.c.copy()
    eps = config.step_size
    n, m = dataset.n, config.width
    X, y = dataset.points, dataset.targets

    trace_rows: list = []
    initial_loss = None
    noise_cfg = TrainConfig(
        width=config.width, steps=config.steps, step_size=config.step_size,
        seed=config.seed, record_stride=config.record_stride,
        interp_tol=config.interp_tol, interp_patience=config.interp_patience,
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
            gnorm = float(
                np.sqrt(np.sum(gA**2) + np.sum(gb**2) + np.sum(gc**2))
            )
            _record(trace_rows, step, net, dataset, loss, reg, gnorm)
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
    return net, _finish_trace(trace_rows, config)


def ray_premerge_reference(dirs, z, members, tol):
    """Greedy pairwise merge of unit directions closer than tol.

    Each direction joins the first earlier kept direction u with
    arccos(clip(u @ v)) < tol and adds its mass and members there.
    """
    out_d, out_z, out_m = [], [], []
    for v, w, mem in zip(dirs, z, members):
        for idx, u in enumerate(out_d):
            if np.arccos(np.clip(u @ v, -1.0, 1.0)) < tol:
                out_z[idx] += w
                out_m[idx].extend(mem)
                break
        else:
            out_d.append(v)
            out_z.append(w)
            out_m.append(list(mem))
    return np.array(out_d), np.array(out_z), out_m
