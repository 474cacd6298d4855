"""Negative controls: every correctness check passes on a real output and
fails on a deliberately corrupted copy of it, so no check is vacuous.

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from relucells import arrangement, model, potentials, solver  # noqa: E402

DS3 = (np.array([[-1.0], [0.2], [1.1]]), np.array([0.5, -0.4, 0.8]))


@pytest.fixture(params=[(1, 6), (2, 5), (3, 5)], ids=["d1", "d2", "d3"])
def cells(request):
    d, n = request.param
    points, targets = checks.generic_dataset(np.random.default_rng(n + d), n, d)
    dec = arrangement.enumerate_cells(model.Dataset(points, targets))
    return points, [c.signs for c in dec.cells], [c.witness for c in dec.cells]


def _cells_problems(points, signs, witnesses):
    return checks.check_cells(points, signs, witnesses, np.random.default_rng(0))


def test_cells_pass(cells):
    assert _cells_problems(*cells) == []


def test_cells_dropped_cell_fails(cells):
    points, signs, witnesses = cells
    assert _cells_problems(points, signs[1:], witnesses[1:])


def test_cells_wrong_witness_fails(cells):
    points, signs, witnesses = cells
    assert _cells_problems(points, signs, [witnesses[1]] + witnesses[1:])


def test_cells_wrong_pattern_fails(cells):
    points, signs, witnesses = cells
    bad = [tuple(-s for s in signs[0])] + signs[1:]  # a repeated pattern
    assert _cells_problems(points, bad, witnesses)


@pytest.fixture(params=["tv", "label-noise"])
def solved(request):
    flag = request.param
    ds = model.Dataset(*DS3)
    prog = solver.build_program(ds, arrangement.enumerate_cells(ds),
                                potentials.PotentialKind.from_flag(flag, ds))
    sol = solver.solve(prog)
    nu = solver.extract_radon(prog, sol)
    cert = solver.optimality_certificate(prog, sol)
    return flag, nu.directions, nu.masses, sol.objective, cert["multipliers"]


def _solve_problems(flag, dirs, masses, objective, multipliers):
    points, targets = DS3
    return (checks.check_interpolation(points, targets, dirs, masses)
            + checks.check_objective(flag, points, dirs, masses, objective)
            + checks.check_one_ray_per_cell(points, dirs)
            + checks.check_dual_bound_d1(flag, points, targets, multipliers, objective))


def test_solve_pass(solved):
    assert _solve_problems(*solved) == []


def test_solve_perturbed_mass_fails(solved):
    flag, dirs, masses, objective, mult = solved
    points, targets = DS3
    bad = masses.copy()
    bad[0] *= 1.01
    assert checks.check_interpolation(points, targets, dirs, bad)


def test_solve_shifted_objective_fails(solved):
    flag, dirs, masses, objective, mult = solved
    points, targets = DS3
    assert checks.check_objective(flag, points, dirs, masses, objective * 1.01)
    assert checks.check_dual_bound_d1(flag, points, targets, mult, objective * 1.01)


def test_solve_loose_dual_candidate_fails(solved):
    flag, dirs, masses, objective, mult = solved
    points, targets = DS3
    assert checks.check_dual_bound_d1(flag, points, targets, mult + 0.05, objective)


def test_solve_two_rays_in_a_cell_fails(solved):
    flag, dirs, masses, objective, mult = solved
    points, _ = DS3
    off_wall = [i for i, u in enumerate(dirs)
                if np.all(np.abs(checks.lift(points) @ u) > 1e-3)]
    u = dirs[off_wall[0]]
    turn = 1e-4
    v = np.array([np.cos(turn) * u[0] - np.sin(turn) * u[1],
                  np.sin(turn) * u[0] + np.cos(turn) * u[1]])
    assert checks.check_one_ray_per_cell(points, np.vstack([dirs, v]))


def _optimum_network(dirs, masses, width: int) -> dict:
    """A balanced width-m network whose neurons sit on the optimum's atoms."""
    per = np.repeat(np.arange(len(masses)), width // len(masses))
    m = per.size
    scale = np.sqrt(np.abs(masses[per]) * m / (width // len(masses)))
    theta = dirs[per] * scale[:, None]
    return {"A": theta[:, :-1].tolist(), "b": theta[:, -1].tolist(),
            "c": (np.sign(masses[per]) * scale).tolist()}


@pytest.fixture
def penalized():
    decay = 0.01
    ds = model.Dataset(*DS3)
    prog = solver.build_program(ds, arrangement.enumerate_cells(ds),
                                potentials.PotentialKind.tv(), mode="penalized",
                                lam=2 * decay)
    sol = solver.solve(prog)
    nu = solver.extract_radon(prog, sol)
    return decay, nu.directions, nu.masses, sol.objective


def test_gd_optimum_pass(penalized):
    decay, dirs, masses, objective = penalized
    net = _optimum_network(dirs, masses, 20)
    assert checks.check_gd_against_optimum(net, *DS3, decay, dirs, masses, objective) == []


def test_gd_far_objective_fails(penalized):
    decay, dirs, masses, objective = penalized
    net = _optimum_network(dirs, masses, 20)
    assert checks.check_gd_against_optimum(net, *DS3, decay, dirs, masses, objective * 0.9)


def test_gd_wrong_direction_fails(penalized):
    decay, dirs, masses, objective = penalized
    net = _optimum_network(dirs, masses, 20)
    big = int(np.argmax(np.abs(masses)))
    turned = dirs.copy()
    turned[big] = [np.cos(0.05) * dirs[big, 0] - np.sin(0.05) * dirs[big, 1],
                   np.sin(0.05) * dirs[big, 0] + np.cos(0.05) * dirs[big, 1]]
    assert checks.check_gd_against_optimum(net, *DS3, decay, turned, masses, objective)


DS2 = (np.array([[-0.6], [0.9]]), np.array([0.7, -0.3]))


def _interpolating_network() -> dict:
    """Two neurons, one active at each point only, fitting DS2 exactly."""
    A = np.array([-1.0, 1.0])
    b = np.array([0.0, 0.0])
    act = np.maximum(DS2[0][:, 0:1] * A + b, 0.0)  # (n, m), diagonal
    c = np.linalg.solve(act / 2, DS2[1])
    return {"A": A[:, None].tolist(), "b": b.tolist(), "c": c.tolist()}


def _trace(net, records: int = 150) -> dict:
    lam = checks.network_lambda(net, DS2[0])
    return {"loss": [1e-6] * (records - 1) + [checks.network_loss(net, *DS2)],
            "lambda": list(np.linspace(2 * lam, lam, records)),
            "support": [3] * (records - 1) + [2]}


def test_label_noise_pass():
    net = _interpolating_network()
    trace = _trace(net)
    assert checks.check_trace_matches_network(trace, net, *DS2) == []
    assert checks.check_label_noise(trace, net, *DS2) == []


def test_wrong_trace_loss_fails():
    net = _interpolating_network()
    trace = _trace(net)
    trace["loss"][-1] += 1e-6
    assert checks.check_trace_matches_network(trace, net, *DS2)


def test_wrong_trace_lambda_fails():
    net = _interpolating_network()
    trace = _trace(net)
    trace["lambda"][-1] *= 1.001
    assert checks.check_trace_matches_network(trace, net, *DS2)


def test_label_noise_no_interpolation_fails():
    net = _interpolating_network()
    trace = _trace(net)
    trace["loss"] = [1e-3] * len(trace["loss"])
    assert checks.check_label_noise(trace, net, *DS2)


def test_label_noise_rising_lambda_fails():
    net = _interpolating_network()
    trace = _trace(net)
    trace["lambda"] = trace["lambda"][::-1]
    assert checks.check_label_noise(trace, net, *DS2)


def test_label_noise_flat_support_fails():
    net = _interpolating_network()
    trace = _trace(net)
    trace["support"] = [2] * len(trace["support"])
    assert checks.check_label_noise(trace, net, *DS2)


def test_label_noise_wrong_support_count_fails():
    net = _interpolating_network()
    trace = _trace(net)
    trace["support"] = [4] * (len(trace["support"]) - 1) + [3]
    assert checks.check_label_noise(trace, net, *DS2)
