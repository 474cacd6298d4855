"""Self-contained property suite behind the `verify` command.

Each check re-derives its expectation independently (counting formulas,
finite differences, grid searches, LP cross-checks) and returns a
machine-readable record. The suite runs at two scales: quick for smoke
testing, full for release gating. `inject_failure` perturbs the ReLU
additivity check and must flip it to a failure; it exists as a negative
control so a silently vacuous suite cannot pass.
"""

from __future__ import annotations

import json
import time

import numpy as np

from .analysis import effective_support, merge_cell_mass, one_point_per_cell
from .arrangement import (
    cell_sum_check,
    enumerate_cells,
    expected_cell_count,
    is_generic,
)
from .model import (
    AtomicMeasure,
    Dataset,
    Neuron,
    ParticleNetwork,
    angle,
    predict_measure,
    predict_radon,
    project_to_sphere,
)
from .potentials import (
    PotentialKind,
    effective_convexity_test,
    rescale_minimize,
    weight,
)
from .solver import LPInstance, build_program, extract_radon, lp_l1, solve
from .trainer import TrainConfig, gd_weight_decay, objective_and_grads, sgd_label_noise


def random_generic_dataset(rng, n, d) -> Dataset:
    """Gaussian points and targets, redrawn until the dataset is generic."""
    while True:
        ds = Dataset(rng.normal(size=(n, d)), rng.normal(size=n))
        if is_generic(ds):
            return ds


def check_cell_count(rng, quick: bool) -> tuple[bool, str]:
    """Enumerated cell count matches the counting formula; sampled sign
    vectors are a subset, with equality at low dimension."""
    cases = 6 if quick else 20
    nsamp = 10_000 if quick else 100_000
    for _ in range(cases):
        d = int(rng.integers(1, 3 if quick else 4))
        n = int(rng.integers(2, 7 if quick else 9))
        ds = random_generic_dataset(rng, n, d)
        dec = enumerate_cells(ds)
        want = expected_cell_count(n, d)
        if dec.size != want:
            return False, f"count {dec.size} != formula {want} (n={n}, d={d})"
        enumerated = {c.signs for c in dec.cells}
        sampled: set = set()
        for attempt in range(3):  # thin cells may need more directions
            dirs = rng.normal(size=(nsamp * 10**attempt, d + 1))
            sampled |= {
                tuple(np.where(ds.lifted @ v > 0, 1, -1)) for v in dirs
            }
            if not sampled <= enumerated:
                return False, (
                    f"sampled sign vector outside enumeration (n={n}, d={d})"
                )
            if sampled == enumerated or d > 2 or n > 8:
                break
        if d <= 2 and n <= 8 and sampled != enumerated:
            return False, f"sampling missed a cell at n={n}, d={d}"
    return True, f"{cases} datasets"


def check_relu_additivity(rng, quick: bool, inject: bool = False) -> tuple[bool, str]:
    """Same-cell parameter pairs satisfy per-datapoint ReLU additivity."""
    pairs = 1_000 if quick else 10_000
    ds = random_generic_dataset(rng, 4, 1)
    dec = enumerate_cells(ds)
    done = 0
    while done < pairs:
        cell = dec.cells[int(rng.integers(dec.size))]
        t1, t2 = np.abs(rng.normal(size=2)) + 0.1
        th1 = t1 * cell.witness
        th2 = t2 * cell.witness + 0.5 * cell.margin * rng.normal(size=2)
        u = dec.lifted @ th2
        if np.min(np.array(cell.signs) * u) <= 1e-9:
            continue  # perturbation left the cell, resample
        if inject:
            th2 = -th2  # negative control: force an opposite-cell pair
            lhs = np.maximum(dec.lifted @ th1, 0) + np.maximum(dec.lifted @ th2, 0)
            rhs = np.maximum(dec.lifted @ (th1 + th2), 0)
            if np.max(np.abs(lhs - rhs)) > 1e-9:
                return False, "injected additivity violation detected"
            continue
        if not cell_sum_check(dec, th1, th2):
            return False, f"additivity failed in cell {cell.signs}"
        done += 1
    return True, f"{pairs} pairs"


def check_convexity(rng, quick: bool) -> tuple[bool, str]:
    """Midpoint convexity of all three weights never reports a violation."""
    probes = 1_000 if quick else 10_000
    ds = random_generic_dataset(rng, 3, 1)
    lifted = ds.lifted
    # the orbit-minimized variant is only convex within one cell (its
    # active-set factor jumps across cell walls), so it is not probed here
    kinds = [PotentialKind.tv(), PotentialKind.label_noise(ds)]
    for i in range(probes):
        kind = kinds[i % 2]
        th1 = rng.normal(size=2)
        th2 = rng.normal(size=2)
        lam = float(rng.uniform(0.05, 0.95))
        mid = lam * th1 + (1.0 - lam) * th2
        lhs = weight(kind, mid)
        rhs = lam * weight(kind, th1) + (1.0 - lam) * weight(kind, th2)
        if lhs > rhs + 1e-12 * max(1.0, rhs):
            return False, f"convexity failed for {kind.variant.value} at probe {i}"
        # strictness is only expected when both active sets have full rank
        # with a safety margin and the directions are non-proportional
        full_rank = all(
            np.linalg.matrix_rank(lifted[lifted @ th > 1e-6], tol=1e-10) == 2
            for th in (th1, th2)
        )
        # angle between the lines through th1 and th2
        u1, u2 = th1 / np.linalg.norm(th1), th2 / np.linalg.norm(th2)
        ang = float(min(angle(u1, u2), angle(u1, -u2)))
        # strictness gap scales with the squared angle; near-proportional
        # pairs fall below the equality tolerance and are not asserted
        if full_rank and ang > 1e-1:
            verdict = effective_convexity_test(kind, th1, th2, lam)
            if verdict != "strict":
                return False, (
                    f"expected strictness for {kind.variant.value}, "
                    f"got {verdict} at probe {i}"
                )
    return True, f"{probes} probes"


def check_rescale_orbit(rng, quick: bool) -> tuple[bool, str]:
    """Closed-form orbit minimum of the raw implicit potential matches a
    geometric grid search."""
    cases = 100 if quick else 1_000
    npts = 2_000 if quick else 10_000
    coarse = np.geomspace(1e-3, 1e3, npts // 10)

    def grid_min(nrn, ds, grid):
        # direct evaluation of the raw potential at every orbit point
        pre = grid[:, None] * (ds.points @ nrn.a + nrn.b)  # (T, n)
        sq = 1.0 + np.sum(ds.points**2, axis=1)
        vals = np.mean(np.maximum(pre, 0.0) ** 2, axis=1) + (
            nrn.c / grid
        ) ** 2 * np.mean(sq * (pre >= 0.0), axis=1)
        return float(np.min(vals)), float(grid[int(np.argmin(vals))])

    for _ in range(cases):
        n = int(rng.integers(2, 6))
        ds = Dataset(rng.normal(size=(n, 1)), rng.normal(size=n))
        nrn = Neuron(rng.normal(size=1), rng.normal(), rng.normal())
        lam_star, val = rescale_minimize(nrn, ds)
        # two-stage grid: coarse bracket then dense local refinement
        cval, t0 = grid_min(nrn, ds, coarse)
        fval, _ = grid_min(
            nrn, ds, np.geomspace(t0 / 2, t0 * 2, npts - npts // 10)
        )
        grid_val = min(cval, fval)
        if val == 0.0:
            if grid_val > 1e-12:
                return False, "zero closed form but positive grid minimum"
            continue
        if abs(val - grid_val) > 1e-6 * max(1.0, grid_val):
            return False, f"closed form {val} vs grid {grid_val}"
    return True, f"{cases} neurons"


def check_solver_lp(rng, quick: bool) -> tuple[bool, str]:
    """Constrained solve, atom extraction and the l1 LP agree."""
    trials = 2 if quick else 4
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        ds = random_generic_dataset(rng, n, 1)
        dec = enumerate_cells(ds)
        for kind in (PotentialKind.tv(), PotentialKind.label_noise(ds)):
            prog = build_program(ds, dec, kind)
            sol = solve(prog)
            if not sol.converged:
                return False, f"solver did not converge (n={n})"
            nu = extract_radon(prog, sol)
            if np.max(np.abs(predict_radon(nu, ds.points) - ds.targets)) > 1e-4:
                return False, "extracted measure misses the targets"
            es = effective_support(nu, dec)
            if one_point_per_cell(es):
                return False, "extracted support has a doubly-occupied cell"
            inst = LPInstance.from_directions(ds, nu.directions, kind)
            z, support, obj = lp_l1(inst)
            if len(support) > n:
                return False, "LP basic solution exceeds the support bound"
            if abs(obj - sol.objective) > 1e-4 * max(1.0, sol.objective):
                return False, f"LP objective {obj} vs solver {sol.objective}"
    return True, f"{trials} instances"


def check_train_determinism(rng, quick: bool) -> tuple[bool, str]:
    """Identical config and seed reproduce traces bitwise."""
    ds = Dataset(np.array([[-0.5], [0.8]]), np.array([0.4, -0.2]))
    seed = int(rng.integers(1 << 30))
    cfg_gd = TrainConfig(width=20, steps=200, step_size=0.5, decay=1e-3,
                         seed=seed, record_stride=20)
    cfg_ln = TrainConfig(width=20, steps=200, step_size=0.05, noise=0.1,
                         seed=seed, record_stride=20)
    for runner, cfg in ((gd_weight_decay, cfg_gd), (sgd_label_noise, cfg_ln)):
        n1, t1 = runner(ds, cfg)
        n2, t2 = runner(ds, cfg)
        same = (
            np.array_equal(t1.loss, t2.loss)
            and np.array_equal(t1.lam_value, t2.lam_value)
            and np.array_equal(n1.A, n2.A)
            and np.array_equal(n1.c, n2.c)
        )
        if not same:
            return False, f"{runner.__name__} is not deterministic"
    return True, "gd + label-noise, bitwise"


def check_gradient_fd(rng, quick: bool) -> tuple[bool, str]:
    """Analytic training gradients match central finite differences away
    from hinges."""
    points = 100 if quick else 1_000
    h = 1e-6
    ds = random_generic_dataset(rng, 3, 1)
    cfg = TrainConfig(width=4, steps=1, step_size=0.1, decay=1e-2)
    checked = 0
    while checked < points:
        net = ParticleNetwork(
            rng.normal(size=(4, 1)), rng.normal(size=4), rng.normal(size=4)
        )
        pre = ds.points @ net.A.T + net.b
        if np.min(np.abs(pre)) < 1e-3 or np.min(np.abs(net.c)) < 1e-3:
            continue  # keep a safety margin from hinges and |c| kinks
        _, _, _, gA, gb, gc = objective_and_grads(net, ds, cfg)
        j = int(rng.integers(4))
        which = int(rng.integers(3))

        def val(dA=0.0, db=0.0, dc=0.0):
            A2, b2, c2 = net.A.copy(), net.b.copy(), net.c.copy()
            A2[j, 0] += dA
            b2[j] += db
            c2[j] += dc
            return objective_and_grads(
                ParticleNetwork(A2, b2, c2), ds, cfg
            )[0]

        if which == 0:
            fd, an = (val(dA=h) - val(dA=-h)) / (2 * h), gA[j, 0]
        elif which == 1:
            fd, an = (val(db=h) - val(db=-h)) / (2 * h), gb[j]
        else:
            fd, an = (val(dc=h) - val(dc=-h)) / (2 * h), gc[j]
        if abs(fd - an) > 1e-5 * max(1.0, abs(fd)):
            return False, f"fd {fd} vs analytic {an}"
        checked += 1
    return True, f"{points} coordinates"


def check_structure_preserving(rng, quick: bool) -> tuple[bool, str]:
    """Sphere projection and cell-mass merging preserve predictions and
    moments; merging never increases the regulariser."""
    merges = 100 if quick else 1_000
    ds = random_generic_dataset(rng, 3, 1)
    dec = enumerate_cells(ds)
    kinds = [PotentialKind.tv(), PotentialKind.label_noise(ds)]
    for i in range(merges):
        cell = dec.cells[int(rng.integers(dec.size))]
        k = int(rng.integers(2, 5))
        thetas = []
        while len(thetas) < k:
            th = cell.witness + 0.5 * cell.margin * rng.normal(size=2)
            if np.min(np.array(cell.signs) * (dec.lifted @ th)) > 1e-9:
                thetas.append(th)
        thetas = np.array(thetas)
        mu = AtomicMeasure(
            thetas[:, :1], thetas[:, 1],
            np.abs(rng.normal(size=k)) + 0.1, np.abs(rng.normal(size=k)) + 0.1,
        )
        pred = predict_measure(mu, ds.points)
        nu = project_to_sphere(mu)
        if np.max(np.abs(predict_radon(nu, ds.points) - pred)) > 1e-9 * (
            1.0 + np.max(np.abs(pred))
        ):
            return False, "sphere projection changed predictions"
        merged = merge_cell_mass(mu, dec)
        if np.max(np.abs(predict_measure(merged, ds.points) - pred)) > 1e-9 * (
            1.0 + np.max(np.abs(pred))
        ):
            return False, "merge changed predictions"
        w = mu.p * mu.c
        w2 = merged.p * merged.c
        if (
            np.max(np.abs(w @ mu.A - w2 @ merged.A)) > 1e-12 * (1 + np.abs(w @ mu.A).max())
            or abs(float(w @ mu.b) - float(w2 @ merged.b)) > 1e-12 * (1 + abs(w @ mu.b))
        ):
            return False, "merge changed the cell moments"
        kind = kinds[i % 2]
        before, after = (
            float(np.sum(m.p * np.abs(m.c) * weight(kind, m.thetas)))
            for m in (mu, merged)
        )
        if after > before + 1e-10 * max(1.0, before):
            return False, f"merge increased the regulariser ({before} -> {after})"
    return True, f"{merges} merges"


CHECKS = [
    ("cell_count", check_cell_count),
    ("relu_additivity", check_relu_additivity),
    ("midpoint_convexity", check_convexity),
    ("rescale_orbit", check_rescale_orbit),
    ("solver_lp_roundtrip", check_solver_lp),
    ("train_determinism", check_train_determinism),
    ("gradient_fd", check_gradient_fd),
    ("structure_preserving", check_structure_preserving),
]


def run_suite(
    seed: int = 0, quick: bool = False, inject_failure: bool = False
) -> tuple[bool, list[dict]]:
    """Run every check; returns (all passed, per-check records)."""
    results = []
    root = np.random.SeedSequence(seed)
    for (name, fn), ss in zip(CHECKS, root.spawn(len(CHECKS))):
        rng = np.random.Generator(np.random.Philox(ss))
        t0 = time.perf_counter()
        try:
            if name == "relu_additivity":
                ok, detail = fn(rng, quick, inject=inject_failure)
            else:
                ok, detail = fn(rng, quick)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(
            {
                "name": name,
                "passed": bool(ok),
                "detail": detail,
                "seconds": round(time.perf_counter() - t0, 3),
            }
        )
    return all(r["passed"] for r in results), results


def suite_to_json(passed: bool, results: list[dict]) -> str:
    return json.dumps({"passed": passed, "checks": results}, indent=2)
