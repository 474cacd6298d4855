import numpy as np
import pytest

from conftest import random_generic_dataset
from oracles import exhaustive_support_objective
from relucells.arrangement import enumerate_cells
from relucells.errors import InfeasibleError, PreconditionError
from relucells.model import Dataset, predict_radon
from relucells.potentials import PotentialKind
from relucells.solver import (
    LPInstance,
    SolverConfig,
    build_program,
    cone_violation,
    extract_radon,
    lp_l1,
    optimality_certificate,
    project_cones,
    solve,
)


def test_build_program_shapes(ds3, dec3):
    prog = build_program(ds3, dec3, PotentialKind.tv())
    K = len(prog.cells_used)
    assert prog.A.shape == (3, 2 * K * 2)
    # only nonempty-active-set cells carry variables
    assert K == sum(1 for c in dec3.cells if c.active_set)


def test_build_program_validates_mode(ds3, dec3):
    with pytest.raises(PreconditionError):
        build_program(ds3, dec3, PotentialKind.tv(), mode="other")
    with pytest.raises(PreconditionError):
        build_program(ds3, dec3, PotentialKind.tv(), mode="penalized", lam=0.0)


def test_single_point_tv_objective():
    # one datapoint at x=1, target 1: best atom direction (1,1)/sqrt(2),
    # mass solves z * relu(sqrt(2)) = 1, objective 1/sqrt(2)
    ds = Dataset(np.array([[1.0]]), np.array([1.0]))
    dec = enumerate_cells(ds)
    prog = build_program(ds, dec, PotentialKind.tv())
    sol = solve(prog)
    assert sol.converged
    assert sol.objective == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)


def test_zero_targets_zero_objective(ds3, dec3):
    ds0 = Dataset(ds3.points, np.zeros(3))
    prog = build_program(ds0, dec3, PotentialKind.tv())
    sol = solve(prog)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_solver_matches_oracle_small():
    rng = np.random.default_rng(14)
    for _ in range(3):
        ds = random_generic_dataset(rng, 2, 1)
        dec = enumerate_cells(ds)
        for kind, name in [
            (PotentialKind.tv(), "tv"),
            (PotentialKind.label_noise(ds), "label-noise"),
        ]:
            prog = build_program(ds, dec, kind)
            sol = solve(prog)
            oracle = exhaustive_support_objective(ds.points, ds.targets, name)
            assert sol.objective == pytest.approx(oracle, rel=1e-4)


def test_extracted_measure_interpolates(ds3, dec3):
    prog = build_program(ds3, dec3, PotentialKind.tv())
    sol = solve(prog)
    nu = extract_radon(prog, sol)
    assert predict_radon(nu, ds3.points) == pytest.approx(
        ds3.targets, abs=1e-6
    )


def test_penalized_mode(ds3, dec3):
    prog = build_program(ds3, dec3, PotentialKind.tv(), mode="penalized",
                         lam=1e-3)
    sol = solve(prog)
    assert sol.converged
    # penalty keeps the fit close but not exact
    assert 0 < sol.diagnostics["data_term"] < 1e-3
    # total objective below the pure-interpolation cost scaled by lam
    prog_c = build_program(ds3, dec3, PotentialKind.tv())
    sol_c = solve(prog_c)
    assert sol.objective <= 1e-3 * sol_c.objective + 1e-9


def test_penalized_approaches_constrained(ds3, dec3):
    # as the penalty weight shrinks, the regulariser value climbs toward
    # the constrained interpolation objective from below
    prog_c = build_program(ds3, dec3, PotentialKind.tv())
    sol_c = solve(prog_c)
    regs = []
    for lam in (1e-2, 1e-3, 1e-4):
        prog_p = build_program(ds3, dec3, PotentialKind.tv(),
                               mode="penalized", lam=lam)
        regs.append(solve(prog_p).diagnostics["regulariser"])
    assert regs[0] < regs[1] < regs[2] <= sol_c.objective * (1 + 1e-6)
    assert regs[2] == pytest.approx(sol_c.objective, rel=5e-2)


def test_infeasible_without_active_cells():
    # all points share a hyperplane orientation such that y outside range:
    # duplicate point with contradicting targets is the simplest case
    ds = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    with pytest.warns(UserWarning):
        dec = enumerate_cells(ds)
    prog = build_program(ds, dec, PotentialKind.tv())
    with pytest.raises(InfeasibleError):
        solve(prog)


def test_cone_projection_matches_dykstra(dec3, ds3):
    rng = np.random.default_rng(5)
    prog = build_program(ds3, dec3, PotentialKind.tv())
    from relucells.solver import _project_blocks

    W = rng.normal(size=(prog.n_blocks, 2)) * 3.0
    exact = _project_blocks(prog, W)
    dykstra = project_cones(W, prog.signs, prog.normals, tol=1e-14,
                            max_cycles=5_000)
    assert exact == pytest.approx(dykstra, abs=1e-10)
    assert cone_violation(exact, prog.signs, prog.normals) <= 1e-12


def test_two_inits_same_objective(ds2):
    dec = enumerate_cells(ds2)
    prog = build_program(ds2, dec, PotentialKind.tv())
    sol1 = solve(prog, SolverConfig())
    sol2 = solve(prog, SolverConfig(init_scale=1.0, seed=99))
    assert sol1.objective == pytest.approx(sol2.objective, rel=1e-6)


def test_lp_instance_roundtrip(tmp_path, ds3):
    dirs = np.array([[1.0, 0.0], [0.6, 0.8]])
    inst = LPInstance.from_directions(ds3, dirs)
    a, y = tmp_path / "a.csv", tmp_path / "y.csv"
    inst.save_csv(a, y)
    back = LPInstance.load_csv(a, y)
    assert back.A == pytest.approx(inst.A)
    assert back.y == pytest.approx(inst.y)


def test_lp_l1_reproduces_solver_objective(ds3, dec3):
    prog = build_program(ds3, dec3, PotentialKind.tv())
    sol = solve(prog)
    nu = extract_radon(prog, sol)
    inst = LPInstance.from_directions(ds3, nu.directions)
    z, support, obj = lp_l1(inst)
    assert obj == pytest.approx(sol.objective, rel=1e-6)
    assert len(support) <= ds3.n


def test_optimality_certificate(ds3, dec3):
    prog = build_program(ds3, dec3, PotentialKind.tv())
    sol = solve(prog)
    cert = optimality_certificate(prog, sol)
    assert cert["alignment_residual"] < 1e-5
    assert cert["inactive_dual_bound"] < 1.0 + 1e-5
    assert cert["normal_multiplier_min"] > -1e-6


def test_solution_json_roundtrip(ds3, dec3):
    import json

    prog = build_program(ds3, dec3, PotentialKind.tv())
    sol = solve(prog)
    payload = json.loads(sol.to_json())
    assert payload["objective"] == pytest.approx(sol.objective)
    assert np.array(payload["u"]) == pytest.approx(sol.u)
