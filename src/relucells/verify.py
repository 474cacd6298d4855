"""Property suite behind the `verify` command and the acceptance criteria.

Each check re-derives its expectation independently (counting formulas,
finite differences, grid searches, LP cross-checks) and returns
(passed, detail). The suite runs at two scales: quick for smoke testing,
full for release gating. At full scale, with their pinned seeds, the cell
count, additivity, convexity, orbit, gradient and structure checks are
acceptance criteria 01, 02, 03, 04, 09 and 10. `inject_failure` perturbs the
ReLU additivity check and must flip it to a failure; it exists as a
negative control so a silently vacuous suite cannot pass.
"""

from __future__ import annotations

import time

import numpy as np

from .analysis import effective_support, merge_cell_mass, one_point_per_cell
from .arrangement import (
    BOUNDARY_EPS,
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
    relu,
)
from .potentials import PotentialKind, potential, rescale_minimize, weight
from .solver import LPInstance, build_program, extract_radon, lp_l1, solve
from .trainer import TrainConfig, gd_weight_decay, objective_and_grads, sgd_label_noise


def random_generic_dataset(rng, n, d) -> Dataset:
    """Gaussian points and targets, redrawn until the dataset is generic."""
    while True:
        ds = Dataset(rng.normal(size=(n, d)), rng.normal(size=n))
        if is_generic(ds):
            return ds


def check_cell_count(rng, quick: bool) -> tuple[bool, str]:
    """Enumeration finds every cell and no others.

    Each dataset's cells must number expected_cell_count, carry distinct
    patterns and hold their witness strictly inside their own pattern.
    Distinct cells of n central hyperplanes number at most that count, so
    none can be missing. Sign patterns of random directions must be
    enumerated cells.
    """
    trials, nsamp = (6, 10_000) if quick else (20, 100_000)
    for trial in range(trials):
        d = (1, 2, 3)[trial % 3]
        n = 2 + trial % 7
        ds = random_generic_dataset(rng, n, d)
        dec = enumerate_cells(ds)
        want = expected_cell_count(n, d)
        if dec.size != want or len(dec.lookup) != dec.size:
            return False, (f"{dec.size} cells, {len(dec.lookup)} distinct, "
                           f"formula {want} (n={n}, d={d})")
        signs = np.array([c.signs for c in dec.cells])
        witnesses = np.array([c.witness for c in dec.cells])
        if np.min(signs * (witnesses @ ds.lifted.T)) <= 0.0:
            return False, f"a witness lies outside its cell (n={n}, d={d})"
        dirs = rng.standard_normal((nsamp, d + 1))
        # one base-3 code per sign row (sign + 1 keeps a zero sign distinct)
        digits = np.sign(ds.lifted @ dirs.T).T.astype(np.int64) + 1
        codes = np.unique(digits @ 3 ** np.arange(n))
        sampled = {tuple(int(c) // 3**i % 3 - 1 for i in range(n)) for c in codes}
        if not sampled <= dec.lookup.keys():
            return False, f"sampled pattern outside enumeration (n={n}, d={d})"
    return True, f"{trials} datasets"


def check_relu_additivity(rng, quick: bool, inject: bool = False) -> tuple[bool, str]:
    """Pairs of parameters with one sign pattern, an enumerated cell,
    satisfy ReLU additivity at every datapoint; opposite rays do not.

    `inject` negates the second parameter of every pair, which puts it in
    the opposite cell: a negative control that must fail.
    """
    pairs = 1_000 if quick else 10_000
    done = 0
    while done < pairs:
        d = int(rng.integers(1, 3))
        ds = random_generic_dataset(rng, int(rng.integers(2, 6)), d)
        dec = enumerate_cells(ds)
        L = ds.lifted
        V = rng.standard_normal((4_000, d + 1))
        pat = np.sign(L @ V.T).T.astype(np.int8)
        order = np.lexsort(pat.T)
        V, pat = V[order], pat[order]
        same = np.all(pat[:-1] == pat[1:], axis=1)
        idx = np.flatnonzero(same)[: pairs - done]
        if idx.size == 0:
            continue
        if not set(map(tuple, pat[idx].tolist())) <= dec.lookup.keys():
            return False, "a sampled pattern is not an enumerated cell"
        t1, t2 = V[idx], V[idx + 1]
        if inject:
            t2 = -t2
        lhs = relu(L @ t1.T) + relu(L @ t2.T)
        rhs = relu(L @ (t1 + t2).T)
        err = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)))
        if err > 1e-9:
            return False, f"additivity off by {err:.2e} (n={ds.n}, d={d})"
        done += idx.size
    # opposite rays on the line: additivity fails at the data
    x = np.array([1.0, 1.0])
    t1, t2 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    if abs(relu(x @ t1) + relu(x @ t2) - relu(x @ (t1 + t2))) <= 0.5:
        return False, "opposite rays passed as additive"
    return True, f"{pairs} pairs"


def check_convexity(rng, quick: bool) -> tuple[bool, str]:
    """Midpoint convexity of the label-noise and TV weights, strict at
    non-proportional probes (for label noise, where both activate two
    points or more).

    The exact label-noise weight is convex only within a cell (its
    active-set factor jumps across walls), so it is not probed here.
    """
    probes = 100 if quick else 1_000  # per dataset, 10 datasets
    tv = PotentialKind.tv()
    strict = 0
    for _ in range(10):
        ds = random_generic_dataset(rng, int(rng.integers(2, 6)), 1)
        kind = PotentialKind.label_noise(ds)
        th1, th2 = np.moveaxis(rng.standard_normal((probes, 2, 2)), 1, 0)
        mid = 0.5 * (th1 + th2)
        n1 = np.linalg.norm(th1, axis=1)
        n2 = np.linalg.norm(th2, axis=1)
        apart = angle(th1 / n1[:, None], th2 / n2[:, None]) > 1e-3
        full1 = np.sum(th1 @ ds.lifted.T > 1e-6 * n1[:, None], axis=1) >= 2
        full2 = np.sum(th2 @ ds.lifted.T > 1e-6 * n2[:, None], axis=1) >= 2
        at_full = apart & full1 & full2
        for k, at in ((kind, at_full), (tv, apart)):
            lhs = weight(k, mid)
            rhs = 0.5 * weight(k, th1) + 0.5 * weight(k, th2)
            if np.any(lhs > rhs + 1e-12 * np.maximum(1.0, rhs)):
                return False, f"{k.variant.value} weight is not convex"
            if np.any(lhs[at] >= rhs[at]):
                return False, f"{k.variant.value} weight is not strictly convex"
        strict += int(np.sum(at_full))
    if strict <= probes:
        return False, f"only {strict} strict label-noise probes"
    return True, f"{10 * probes} probes, {strict} strict"


def check_rescale_orbit(rng, quick: bool) -> tuple[bool, str]:
    """Closed-form orbit minimum of the raw implicit potential matches a
    geometric grid search. The detail gives the range of the ratio of that
    exact orbit minimum to the simplified label-noise weight."""
    cases = 100 if quick else 1_000
    coarse = np.geomspace(1e-3, 1e3, 1_000)

    def grid_min(nrn, ds, grid):
        # direct evaluation of the raw potential at every orbit point
        pre = grid[:, None] * (ds.points @ nrn.a + nrn.b)  # (T, n)
        sq = 1.0 + np.sum(ds.points**2, axis=1)
        vals = np.mean(np.maximum(pre, 0.0) ** 2, axis=1) + (
            nrn.c / grid
        ) ** 2 * np.mean(sq * (pre >= 0.0), axis=1)
        return float(np.min(vals)), float(grid[int(np.argmin(vals))])

    factors = []
    for _ in range(cases):
        n = int(rng.integers(2, 6))
        ds = Dataset(rng.normal(size=(n, 1)), rng.normal(size=n))
        nrn = Neuron(rng.normal(size=1), rng.normal(), rng.normal())
        _, val = rescale_minimize(nrn, ds)
        simplified = potential(PotentialKind.label_noise(ds), nrn)
        if simplified > 1e-9:
            factors.append(val / simplified)
        # two-stage grid of 10 000 points: coarse bracket then dense local
        # refinement
        cval, t0 = grid_min(nrn, ds, coarse)
        fval, _ = grid_min(nrn, ds, np.geomspace(t0 / 2, t0 * 2, 9_000))
        grid_val = min(cval, fval)
        if val == 0.0:
            if grid_val > 1e-12:
                return False, "zero closed form but positive grid minimum"
            continue
        if abs(val - grid_val) > 1e-6 * grid_val + 1e-12:
            return False, f"closed form {val} vs grid {grid_val}"
    return True, (f"{cases} neurons, exact/simplified weight factor "
                  f"min {min(factors, default=np.nan):.3f} "
                  f"max {max(factors, default=np.nan):.3f}")


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
    """Analytic training gradients match central finite differences in
    every coordinate, away from hinges."""
    points = 100 if quick else 1_000
    cfg = TrainConfig(width=3, decay=0.1)
    h = 1e-6
    checked = 0
    while checked < points:
        ds = Dataset(rng.normal(size=(3, 1)), rng.normal(size=3))
        net = ParticleNetwork(rng.normal(size=(3, 1)), rng.normal(size=3),
                              rng.normal(size=3))
        pre = ds.points @ net.A.T + net.b
        if np.min(np.abs(pre)) < 1e-3:  # keep clear of the hinge
            continue
        _, _, _, gA, gb, gc = objective_and_grads(net, ds, cfg)
        analytic = np.concatenate([gA.ravel(), gb, gc])
        fd = []
        for arr in (net.A.ravel(), net.b, net.c):  # views into net
            for i in range(arr.size):
                old = arr[i]
                arr[i] = old + h
                up = objective_and_grads(net, ds, cfg)[0]
                arr[i] = old - h
                down = objective_and_grads(net, ds, cfg)[0]
                arr[i] = old
                fd.append((up - down) / (2 * h))
        fd = np.array(fd)
        err = float(np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-2)))
        if err > 1e-5:
            return False, f"gradient off finite differences by {err:.2e}"
        checked += 1
    return True, f"{points} networks"


def check_structure_preserving(
    rng, quick: bool, dataset: Dataset | None = None
) -> tuple[bool, str]:
    """Sphere projection and cell-mass merging preserve predictions and the
    cell's first moments; merging never raises the TV or label-noise
    regulariser, and lowers TV for non-proportional atoms.

    Each probe draws two atoms around a cell's witness and its double,
    redrawing one that leaves the cell. `dataset` defaults to a random
    generic d=1 dataset with three points.
    """
    merges = 100 if quick else 1_000
    ds = random_generic_dataset(rng, 3, 1) if dataset is None else dataset
    dec = enumerate_cells(ds)
    kinds = (PotentialKind.tv(), PotentialKind.label_noise(ds))
    strict = 0
    for _ in range(merges):
        cell = dec.cells[int(rng.integers(dec.size))]
        signs = np.array(cell.signs)
        scale = 0.2 * cell.margin
        thetas = []
        for center in (cell.witness, 2.0 * cell.witness):
            while True:
                th = center + rng.normal(scale=scale, size=ds.d + 1)
                # past BOUNDARY_EPS, locate_cell puts the atom in this cell
                inside = np.min(signs * (dec.lifted @ th))
                if inside > BOUNDARY_EPS * np.linalg.norm(th):
                    break
            thetas.append(th)
        thetas = np.array(thetas)
        mu = AtomicMeasure(thetas[:, :-1], thetas[:, -1],
                           np.ones(2), np.array([0.6, 0.4]))
        preds = predict_measure(mu, ds.points)
        nu = project_to_sphere(mu)
        if np.max(np.abs(predict_radon(nu, ds.points) - preds)) > 1e-9:
            return False, "sphere projection changed predictions"
        merged = merge_cell_mass(mu, dec)
        if np.max(np.abs(predict_measure(merged, ds.points) - preds)) > 1e-9:
            return False, "merge changed predictions"
        want, got = ((m.p * m.c) @ m.thetas for m in (mu, merged))
        if np.max(np.abs(want - got)) > 1e-12:
            return False, "merge changed the cell moments"
        regs = [
            [float(np.sum(m.p * np.abs(m.c) * weight(kind, m.thetas)))
             for m in (mu, merged)]
            for kind in kinds
        ]
        for kind, (before, after) in zip(kinds, regs):
            if after > before + 1e-12:
                return False, (f"merge raised the {kind.variant.value} "
                               f"regulariser ({before} -> {after})")
        u = thetas / np.linalg.norm(thetas, axis=1)[:, None]
        if angle(u[0], u[1]) > 1e-6:
            before, after = regs[0]
            if after >= before:
                return False, "merge kept the TV of non-proportional atoms"
            strict += 1
    if strict <= merges * 9 // 10:
        return False, f"only {strict} of {merges} merges lowered the TV"
    return True, f"{merges} merges, {strict} strict"


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
) -> dict:
    """Run every check; returns the `verify.json` record: whether all
    passed, the seed, the scale, the total seconds and one record per
    check."""
    results = []
    root = np.random.SeedSequence(seed)
    start = time.perf_counter()
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
    return {
        "passed": all(r["passed"] for r in results),
        "seed": seed,
        "scale": "quick" if quick else "full",
        "seconds": round(time.perf_counter() - start, 3),
        "checks": results,
    }
