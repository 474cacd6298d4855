"""End-to-end acceptance gate.

Each test covers one headline property at desk scale, prints a single
pass/fail line with its runtime, and enforces the stated tolerance and
time budget. Criteria 01, 02, 03, 04, 09 and 10 are the `relucells verify`
checks of `relucells.verify` run at full scale with a pinned seed, so the
command and the gate share one implementation. The others check the
solver and training against the independent references in `oracles.py`.
"""

import time

import numpy as np
import pytest

from conftest import random_generic_dataset, seeded_start
from oracles import exhaustive_support_objective
from relucells import solver
from relucells.analysis import (
    compare_supports,
    effective_support,
    one_point_per_cell,
)
from relucells.arrangement import enumerate_cells
from relucells.potentials import PotentialKind, at_bulk
from relucells.solver import (
    LPInstance,
    build_program,
    extract_radon,
    lp_l1,
    solve,
)
from relucells.trainer import (
    TrainConfig,
    balancedness,
    gd_weight_decay,
    sgd_label_noise,
)
from relucells.verify import (
    check_cell_count,
    check_convexity,
    check_gradient_fd,
    check_relu_additivity,
    check_rescale_orbit,
    check_structure_preserving,
)


def _report(capsys, num, name, ok, elapsed, extra=""):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: {verdict} "
              f"({elapsed:.1f}s{extra})")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_cell_count_law(capsys):
    t0 = time.perf_counter()
    ok, detail = check_cell_count(np.random.default_rng(8), quick=False)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(capsys, 1, "cell-count law", ok, elapsed, extra=f", {detail}")


def test_criterion_02_relu_additivity(capsys):
    t0 = time.perf_counter()
    ok, detail = check_relu_additivity(np.random.default_rng(2), quick=False)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(capsys, 2, "same-cell additivity", ok, elapsed,
            extra=f", {detail}")


def test_criterion_03_midpoint_convexity(capsys):
    t0 = time.perf_counter()
    ok, detail = check_convexity(np.random.default_rng(3), quick=False)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(capsys, 3, "midpoint convexity of the label-noise weight", ok,
            elapsed, extra=f", {detail}")


def test_criterion_04_rescaling_identity(capsys):
    t0 = time.perf_counter()
    ok, detail = check_rescale_orbit(np.random.default_rng(4), quick=False)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(capsys, 4, "orbit-minimum closed form", ok, elapsed,
            extra=f", {detail}")


@pytest.fixture(scope="module")
def solver_probe_runs():
    """Ten random line instances solved twice from different initial points."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    runs = []
    for trial in range(10):
        n = 2 + trial % 2
        ds = random_generic_dataset(rng, n, 1)
        dec = enumerate_cells(ds)
        per_kind = {}
        for flag in ("tv", "label-noise"):
            kind = PotentialKind.from_flag(flag, ds)
            prog = build_program(ds, dec, kind)
            # the fixture is module-scoped, so it cannot take monkeypatch
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "MAX_ITERS", 120_000)
                sol1 = solve(prog)
                mp.setattr(solver, "_initial", seeded_start(7))
                sol2 = solve(prog)
            oracle = exhaustive_support_objective(ds.points, ds.targets, flag)
            per_kind[flag] = (prog, sol1, sol2, oracle)
        runs.append((ds, dec, per_kind))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"solver probe runs took {elapsed:.1f}s"
    return runs


def test_criterion_05_solver_vs_brute_force(capsys, solver_probe_runs):
    t0 = time.perf_counter()
    ok = True
    for ds, dec, per_kind in solver_probe_runs:
        for flag, (prog, sol1, _, oracle) in per_kind.items():
            ok &= abs(sol1.objective - oracle) <= 1e-4 * max(1.0, abs(oracle))
            nu = extract_radon(prog, sol1)
            supp = effective_support(nu, dec)
            ok &= one_point_per_cell(supp) == []
            if nu.k:
                kind = PotentialKind.from_flag(flag, ds)
                z, support, obj = lp_l1(LPInstance.from_directions(
                    ds, nu.directions, kind))
                ok &= abs(obj - sol1.objective) <= 1e-6 * max(
                    1.0, abs(sol1.objective))
                ok &= len(support) <= ds.n
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, "solver matches exhaustive-support oracle", ok,
            elapsed)


def test_criterion_06_support_uniqueness(capsys, solver_probe_runs):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for ds, dec, per_kind in per_kind_iter(solver_probe_runs):
        flag, prog, sol1, sol2 = per_kind
        nu1 = extract_radon(prog, sol1)
        nu2 = extract_radon(prog, sol2)
        cmp = compare_supports(effective_support(nu1, dec),
                               effective_support(nu2, dec))
        for m in cmp["matched"]:
            # the label-noise gauge is only a seminorm on rank-deficient
            # cells, where the minimizer direction is genuinely non-unique;
            # uniqueness is asserted on full-rank (bulk) cells
            if flag != "tv" and not at_bulk(dec, m["cell"]):
                continue
            worst = max(worst, m["delta"])
            ok &= m["delta"] <= 1e-4
        ok &= not cmp["unmatched_cells_1"] and not cmp["unmatched_cells_2"]
    elapsed = time.perf_counter() - t0
    _report(capsys, 6, "per-cell support direction uniqueness", ok, elapsed,
            extra=f", worst delta {worst:.2e} rad")


def per_kind_iter(runs):
    for ds, dec, per_kind in runs:
        for flag, (prog, sol1, sol2, _) in per_kind.items():
            yield ds, dec, (flag, prog, sol1, sol2)


def test_criterion_07_weight_decay_training(capsys, ds3, dec3):
    t0 = time.perf_counter()
    lam = 1e-3
    # at balancedness the norm-squared penalty equals twice the total-
    # variation mass, so the matching measure problem uses weight 2 lam
    prog = build_program(ds3, dec3, PotentialKind.tv(), mode="penalized",
                         lam=2 * lam)
    sol = solve(prog)
    nu = extract_radon(prog, sol)
    cfg = TrainConfig(width=200, steps=400_000, step_size=2.0, decay=lam,
                      init_scale=0.5, seed=3, record_stride=2_000)
    net, trace = gd_weight_decay(ds3, cfg)
    final_obj = float(trace.loss[-1] + trace.reg_value[-1])
    ok = abs(final_obj - sol.objective) <= 0.05 * sol.objective

    supp = effective_support(net, dec3, tau_angle=5e-2)
    ok &= one_point_per_cell(supp) == []
    for g in supp.groups:
        angles = np.arccos(np.clip(nu.directions @ g.direction, -1.0, 1.0))
        ok &= float(np.min(angles)) <= 1e-2

    norms = np.sqrt(np.sum(net.A**2, axis=1) + net.b**2)
    total_mass = float(np.sum(norms * np.abs(net.c))) / net.m
    bal = balancedness(net, atom_eps=1e-4 * total_mass)
    ok &= bal <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(capsys, 7, "weight-decay training recovers the sparse optimum",
            ok, elapsed, extra=f", objective gap "
            f"{abs(final_obj - sol.objective) / sol.objective:.2e}, "
            f"balancedness {bal:.2e}")


def test_criterion_08_label_noise_regularization(capsys, ds2):
    t0 = time.perf_counter()
    ok = True
    for seed in (1, 2, 3):
        cfg = TrainConfig(width=50, steps=1_000_000, step_size=0.1,
                          noise=0.1, noise_dist="rademacher", seed=seed,
                          init_scale=1.0, record_stride=2_000)
        net1, trace = sgd_label_noise(ds2, cfg)
        net2, _ = sgd_label_noise(ds2, cfg)
        ok &= bool(np.array_equal(net1.c, net2.c))  # deterministic per seed
        ok &= trace.interpolation_step is not None
        post = trace.steps >= trace.interpolation_step
        lam = trace.lam_value[post]
        supp = trace.support[post]
        q = max(1, len(lam) // 5)
        ok &= float(np.mean(lam[-q:])) <= float(np.mean(lam[:q]))
        ok &= int(supp[-1]) < int(supp[0])
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180.0
    _report(capsys, 8, "label noise shrinks the implicit regulariser", ok,
            elapsed)


def test_criterion_09_gradient_oracle(capsys):
    t0 = time.perf_counter()
    ok, detail = check_gradient_fd(np.random.default_rng(9), quick=False)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(capsys, 9, "analytic gradients match finite differences", ok,
            elapsed, extra=f", {detail}")


def test_criterion_10_structure_preserving_operations(capsys, ds3):
    t0 = time.perf_counter()
    ok, detail = check_structure_preserving(np.random.default_rng(10),
                                            quick=False, dataset=ds3)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(capsys, 10, "merging and sphere projection preserve structure",
            ok, elapsed, extra=f", {detail}")
