import json
import warnings

import numpy as np
import pytest

from conftest import random_generic_dataset
from oracles import (
    bisect_secular_root,
    cone_price_grid,
    dr_reference,
    dykstra_reference,
    exhaustive_support_objective,
    gauge_prox_bisection_reference,
    weak_duality_bound,
)
from relucells.arrangement import enumerate_cells
from relucells.errors import InfeasibleError, NumericalError, PreconditionError
from relucells.model import DIRECTION_MERGE_TOL, Dataset, angle, predict_radon
from relucells.potentials import CellGauge, PotentialKind
from relucells import solver
from relucells.solver import (
    LPInstance,
    STEP,
    _GaugeProx,
    _live_blocks,
    _secular_root,
    SolverConfig,
    build_program,
    cone_faces,
    cone_price,
    cone_violation,
    extract_radon,
    lp_l1,
    optimality_certificate,
    project_cones,
    solve,
)

# Generic d = 2, n = 3 datasets: Gaussian points and targets drawn with
# numpy's default_rng(5) and default_rng(1).
PLANE = {
    5: (
        np.array([[-0.8019314252534474, -1.324358995628145],
                  [-0.24836162209524854, 0.4204452380655215],
                  [1.1360465324896427, 0.10970639932180819]]),
        np.array([-0.5526473205362324, -0.7847803553442784, 0.7487457707345911]),
    ),
    1: (
        np.array([[0.345584192064786, 0.8216181435011584],
                  [0.33043707618338714, -1.303157231604361],
                  [0.9053558666731177, 0.4463745723640113]]),
        np.array([-0.5369532353602852, 0.5811181041963531, 0.36457239618607573]),
    ),
}


@pytest.fixture
def dr_only(monkeypatch):
    """The Douglas-Rachford loop alone: every finishing attempt declines."""
    monkeypatch.setattr("relucells.solver._finish", lambda *args: None)


def _certified(prog, sol):
    """The certificate of sol, after asserting its three thresholds."""
    cert = optimality_certificate(prog, sol)
    assert cert["alignment_residual"] < 1e-5
    assert cert["inactive_dual_bound"] < 1.0 + 1e-5
    assert cert["normal_multiplier_min"] > -1e-6
    return cert


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
    # the finish certifies the zero measure, which has no live block
    assert sol.diagnostics["stop_reason"] == "certified"


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


@pytest.mark.parametrize("data, atoms", [("ds3", 3), ("plane5", 2), ("plane1", 2)])
def test_extracted_wall_rays_appear_once(data, atoms, ds3):
    # on these datasets both cells next to a wall hold its ray, the two
    # copies about 5e-16 rad apart; on PLANE[1] Douglas-Rachford alone left
    # them 9.6e-10 rad apart (3 atoms), and the finish puts both on the wall
    ds = {"ds3": ds3, "plane5": Dataset(*PLANE[5]), "plane1": Dataset(*PLANE[1])}[data]
    prog = build_program(ds, enumerate_cells(ds), PotentialKind.tv())
    sol = solve(prog)
    nu = extract_radon(prog, sol)
    i, j = np.triu_indices(nu.k, 1)
    assert np.all(angle(nu.directions[i], nu.directions[j]) >= DIRECTION_MERGE_TOL)
    assert nu.k == atoms
    assert nu.tv_norm == pytest.approx(sol.objective, rel=1e-6)


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


def _cone_inputs(prog, rng):
    """Random rows, scaled cell witnesses (inside) and witnesses moved onto
    one of their cell's walls, one block index per row."""
    K = len(prog.cells_used)
    blocks = np.arange(prog.n_blocks)
    wit = np.array([prog.decomposition.cells[prog.cells_used[b % K]].witness
                    for b in blocks])
    inside = wit * (0.5 + rng.random((len(blocks), 1)))
    rows, owners = [], []
    for b, w in zip(blocks, inside):
        for nrm in prog.normals:
            x = w - (w @ nrm) * nrm
            if np.min(prog.signs[b] * (prog.normals @ x)) >= -1e-15:
                rows.append(x)
                owners.append(b)
    assert rows, "no witness lands on a wall inside its cone"
    outside = rng.normal(size=(3 * len(blocks), prog.k)) * 3.0
    return (
        (outside, np.tile(blocks, 3)),
        (inside, blocks),
        (np.array(rows), np.array(owners)),
    )


def test_cone_projection_matches_dykstra():
    rng = np.random.default_rng(5)
    datasets = [random_generic_dataset(rng, n, d)
                for n, d in [(3, 1), (6, 1), (3, 2), (5, 2), (5, 3)]]
    # a repeated point gives two copies of one hyperplane
    datasets.append(Dataset(np.array([[-1.0, 0.3], [0.4, 0.5], [0.4, 0.5],
                                      [0.9, -0.7]]), np.zeros(4)))
    for ds in datasets:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            dec = enumerate_cells(ds)
        prog = build_program(ds, dec, PotentialKind.tv())
        (outside, b_out), (inside, b_in), (wall, b_wall) = _cone_inputs(prog, rng)
        for W, blk in [(outside, b_out), (inside, b_in), (wall, b_wall)]:
            signs = prog.signs[blk]
            exact = project_cones(W, prog.cones[blk])
            # thin cones (here in the n = 5, d = 2 case) take Dykstra over
            # 20 000 cycles to settle
            dykstra = dykstra_reference(W, signs, prog.normals, tol=1e-15,
                                        max_cycles=200_000)
            assert exact == pytest.approx(dykstra, abs=1e-10)
            assert cone_violation(exact, signs, prog.normals) <= 1e-12
        # points of the cone stay where they are
        assert np.array_equal(
            project_cones(inside, prog.cones[b_in]), inside
        )
        assert project_cones(wall, prog.cones[b_wall]) == pytest.approx(
            wall, abs=1e-12
        )


def test_cone_faces_follow_the_cell_walls(ds3, dec3):
    # at d = 1 every cone is a sector with two walls: faces (), {a}, {b}
    prog = build_program(ds3, dec3, PotentialKind.tv())
    K = len(prog.cells_used)
    walls, faces = cone_faces(dec3, prog.cells_used, prog.normals)
    assert walls.shape == (K, 2, 2)
    assert faces.shape == (K, 3, 2, 2)
    assert all(np.array_equal(P, np.eye(2)) for P in faces[:, 0])
    # the operator stacks the apex, then the faces; each face's projector
    # above its wall tests, for the u and the v blocks
    assert prog.cones.shape == (2 * K, 2 + 2, 1 + 3, 2)
    assert np.array_equal(prog.cones[:K], prog.cones[K:])
    assert not prog.cones[:, :, 0].any()
    assert np.array_equal(np.moveaxis(prog.cones[:K, :2, 1:], 2, 1), faces)
    assert np.array_equal(prog.cones[:K, 2:, 1:],
                          np.moveaxis(walls[:, None] @ faces, 2, 1))
    # d = 2, n = 3: at most 1 + 3 + 3 faces per cone
    ds = Dataset(*PLANE[5])
    dec = enumerate_cells(ds)
    prog2 = build_program(ds, dec, PotentialKind.tv())
    faces2 = cone_faces(dec, prog2.cells_used, prog2.normals)[1]
    assert faces2.shape[1:] == (7, 3, 3)
    for P in faces2.reshape(-1, 3, 3):
        assert P @ P == pytest.approx(P, abs=1e-12)


@pytest.mark.parametrize("seed", [5, 1])
def test_plane_tv_solve_is_certified(seed):
    points, targets = PLANE[seed]
    ds = Dataset(points, targets)
    prog = build_program(ds, enumerate_cells(ds), PotentialKind.tv())
    sol = solve(prog)
    assert sol.converged
    nu = extract_radon(prog, sol)
    assert predict_radon(nu, points) == pytest.approx(targets, abs=1e-6)
    cert = _certified(prog, sol)
    # the grid misses the dual peak by up to ~1e-3 relative
    bound = weak_duality_bound("tv", points, targets, cert["multipliers"])
    assert bound == pytest.approx(sol.objective, rel=1e-3)


def test_plane_label_noise_multipliers_reach_the_objective():
    # 4 of the nonzero blocks on seed 5 lie on the wall of every point
    # active in their cell; the certificate leaves them out of the fit
    for seed in (5, 1):
        points, targets = PLANE[seed]
        ds = Dataset(points, targets)
        prog = build_program(ds, enumerate_cells(ds),
                             PotentialKind.label_noise(ds))
        sol = solve(prog)
        assert sol.converged
        cert = _certified(prog, sol)
        bound = weak_duality_bound("label-noise", points, targets,
                                   cert["multipliers"])
        assert bound == pytest.approx(sol.objective, rel=1e-6)


def test_two_inits_same_objective(ds2):
    dec = enumerate_cells(ds2)
    prog = build_program(ds2, dec, PotentialKind.tv())
    sol1 = solve(prog, SolverConfig())
    sol2 = solve(prog, SolverConfig(init_scale=1.0, seed=99))
    assert sol1.objective == pytest.approx(sol2.objective, rel=1e-6)


def test_lp_l1_reproduces_solver_objective(ds3, dec3):
    prog = build_program(ds3, dec3, PotentialKind.tv())
    sol = solve(prog)
    nu = extract_radon(prog, sol)
    inst = LPInstance.from_directions(ds3, nu.directions, PotentialKind.tv())
    z, support, obj = lp_l1(inst)
    assert obj == pytest.approx(sol.objective, rel=1e-6)
    assert len(support) <= ds3.n


@pytest.mark.parametrize("flag", ["tv", "label-noise"])
@pytest.mark.parametrize("seed", [5, 1])
def test_plane_lp_l1_reproduces_solver_objective(seed, flag):
    # two extracted columns were nearly equal: on 1/tv Douglas-Rachford
    # alone split a wall ray, its copies 9.6e-10 rad apart (above
    # DIRECTION_MERGE_TOL), and on 5/label-noise two directions give
    # identical weight-normalized columns. The exact-equality LP took a
    # costly vertex on both (3.42 against 1.398, and 6.22 against 0.986)
    ds = Dataset(*PLANE[seed])
    kind = PotentialKind.from_flag(flag, ds)
    prog = build_program(ds, enumerate_cells(ds), kind)
    sol = solve(prog)
    assert sol.converged
    nu = extract_radon(prog, sol)
    z, support, obj = lp_l1(LPInstance.from_directions(ds, nu.directions, kind))
    assert obj == pytest.approx(sol.objective, rel=1e-6)
    assert len(support) <= ds.n


def test_optimality_certificate(ds3, dec3):
    prog = build_program(ds3, dec3, PotentialKind.tv())
    sol = solve(prog)
    _certified(prog, sol)


def test_solution_json_roundtrip(ds3, dec3):
    prog = build_program(ds3, dec3, PotentialKind.tv())
    sol = solve(prog)
    payload = json.loads(sol.to_json())
    assert payload["objective"] == pytest.approx(sol.objective)
    assert np.array(payload["u"]) == pytest.approx(sol.u)


def test_gauge_prox_matches_bisection():
    # the prox of the gauges kappa g with step t is the prox of the gauges
    # t kappa g with step STEP = 1, so scaling kappa varies the step
    assert STEP == 1.0
    rng = np.random.default_rng(8)
    rank_deficient = 0
    for n, d in [(3, 1), (6, 1), (3, 2), (5, 2), (5, 3)]:
        ds = random_generic_dataset(rng, n, d)
        dec = enumerate_cells(ds)
        for kind in (PotentialKind.label_noise(ds),
                     PotentialKind.label_noise_exact(ds)):
            gauges = build_program(ds, dec, kind).gauges
            # one more block whose gauge vanishes (kappa = 0)
            gauges += (CellGauge(-1, gauges[0].Q, 0.0),)
            Q = np.array([g.Q for g in gauges] * 2)
            rank_deficient += int(np.sum(np.linalg.matrix_rank(Q) < d + 1))
            tq = np.array([g.kappa for g in gauges] * 2) > 0.0
            for trial in range(40):
                t = 0.0 if trial == 0 else float(10.0 ** rng.uniform(-2, 1))
                W = rng.normal(size=(len(Q), d + 1)) * 10.0 ** rng.uniform(
                    -3, 2, size=(len(Q), 1))
                if trial == 1:
                    W[:] = 0.0
                if trial == 2:  # small rows in the range of Q shrink to 0
                    t = 1.0
                    W = 1e-3 * np.einsum("bij,bj->bi", Q, W / np.max(np.abs(W)))
                prox = _GaugeProx([CellGauge(g.cell_index, g.Q, t * g.kappa)
                                   for g in gauges])
                P = prox.prox(W)
                scale = np.max(np.abs(W))
                ref = gauge_prox_bisection_reference(Q, prox.kappa, W, STEP)
                assert np.max(np.abs(P - ref)) <= 1e-14 * scale
                if trial == 2:
                    assert np.max(np.abs(P[tq])) <= 1e-14 * scale
                if t == 0.0:
                    assert np.max(np.abs(P - W)) <= 1e-14 * scale
                # W - P = t kappa Q P / sqrt(P^T Q P) where P is off the
                # null space of Q
                gP = np.sqrt(np.maximum(np.einsum("bi,bij,bj->b", P, Q, P), 0.0))
                on = tq & (gP > 1e-6 * scale)
                grad = np.einsum("bij,bj->bi", Q[on], P[on]) / gP[on, None]
                assert np.max(np.abs(W[on] - P[on] - prox.kappa[on, None] * grad),
                              initial=0.0) <= 1e-10 * scale
    assert rank_deficient > 0


def _secular_rows():
    """Secular equations of up to 500 rows with a positive root."""
    rng = np.random.default_rng(2)
    num = rng.random((500, 3)) * 10.0 ** rng.uniform(-4, 4, size=(500, 1))
    num[::4, 0] = 0.0  # a zero eigenvalue: no term, unit denominator
    tl = np.where(num > 0.0, 10.0 ** rng.uniform(-3, 1, size=(500, 3)), 1.0)
    has_root = np.sum(num / tl**2, axis=1) > 1.0
    return num[has_root], tl[has_root]


def test_secular_root_settles_within_its_budget():
    # num and tl over 1e-8 to 1e8, started at 0, at the root, below it and
    # above it: Newton settles within 30 steps and matches bisection
    rng = np.random.default_rng(20)
    num = 10.0 ** rng.uniform(-8, 8, size=(40_000, 3))
    num[::5, 0] = 0.0
    tl = np.where(num > 0.0, 10.0 ** rng.uniform(-8, 8, size=(40_000, 3)), 1.0)
    has_root = np.sum(num / tl**2, axis=1) > 1.0
    num, tl = num[has_root][:20_000], tl[has_root][:20_000]
    assert len(num) == 20_000
    ref = bisect_secular_root(num, tl)
    # rounding rho + tl_j fixes any root only to about an ulp of the scale
    # 1 / sum_j q_j / (rho + tl_j), q_j = num_j / (rho + tl_j)^2, which is
    # far above rho where rho + tl_j cancels (sqrt(num_j) close to tl_j)
    scale = 1.0 / np.sum(num / (ref[:, None] + tl) ** 3, axis=1)
    for start in (0.0, ref, 0.5 * ref, 3.0 * ref + 1.0):
        rho, _ = _secular_root(num, tl, start)
        assert np.max(np.abs(rho - ref) / scale) <= 1e-12
    # a row that never settles raises instead of returning a guess
    with pytest.raises(NumericalError):
        _secular_root(np.array([[np.nan, 1.0]]), np.ones((1, 2)))


def test_warm_started_secular_root_agrees_from_any_start():
    # only the first step may go down, and it lands at or below the root
    num, tl = _secular_rows()
    ref = bisect_secular_root(num, tl)
    lower = np.maximum(np.max(np.sqrt(num) - tl, axis=1), 0.0)
    cold_steps = _secular_root(num, tl)[1]
    for start in (10.0 * ref + 1.0, 1.5 * ref, ref, 0.0, 0.5 * lower, -1.0):
        rho, steps = _secular_root(num, tl, start)
        assert rho == pytest.approx(ref, rel=1e-12)
        assert steps <= cold_steps + 1


def _label_noise_solve(ds):
    prog = build_program(ds, enumerate_cells(ds), PotentialKind.label_noise(ds))
    return solve(prog)


def test_label_noise_solves_pin_the_bisection_prox(monkeypatch, ds3):
    datasets = [ds3, Dataset(*PLANE[5])]
    shipped = [_label_noise_solve(ds) for ds in datasets]
    init = _GaugeProx.__init__

    def init_keeping_q(self, gauges):
        init(self, gauges)
        self.Q = np.array([g.Q for g in gauges] * 2)

    monkeypatch.setattr(_GaugeProx, "__init__", init_keeping_q)
    monkeypatch.setattr(
        _GaugeProx, "prox",
        lambda self, W: gauge_prox_bisection_reference(self.Q, self.kappa, W, STEP),
    )
    for ds, sol in zip(datasets, shipped):
        ref = _label_noise_solve(ds)
        assert sol.iterations == ref.iterations
        assert sol.objective == pytest.approx(ref.objective, rel=1e-12)


@pytest.mark.parametrize("lam", [0.02, 2e-3, 1e-3])
def test_penalized_certificate_fits_touched_walls(ds3, dec3, lam):
    # 4 of the 5 live blocks of this optimum rest on a cone wall, so the
    # fit needs their normal-cone coefficients as well as the explicit
    # multipliers (y - A x) / (n lam), which the stopping rule settles
    prog = build_program(ds3, dec3, PotentialKind.tv(), mode="penalized",
                         lam=lam)
    sol = solve(prog)
    assert sol.converged
    _certified(prog, sol)


def test_penalized_small_lambda_converges():
    # d = 1, n = 5: a splitting with a gradient data step took over 300 000
    # iterations here at lam = 1e-3
    ds = Dataset(
        np.array([[-0.8568499815689868], [-0.4490774845948892],
                  [0.07514122771624178], [0.30258779611564257],
                  [0.8245912191632616]]),
        np.array([0.45731347451265264, -0.6238373883912377, -0.8896049884010534,
                  -0.44939062070962893, 0.3151013452080408]),
    )
    prog = build_program(ds, enumerate_cells(ds), PotentialKind.tv(),
                         mode="penalized", lam=1e-3)
    sol = solve(prog, SolverConfig(max_iters=30_000))
    assert sol.converged
    _certified(prog, sol)


@pytest.mark.parametrize("seed", [5, 1])
def test_plane_penalized_tv_solve_is_certified(seed):
    ds = Dataset(*PLANE[seed])
    prog = build_program(ds, enumerate_cells(ds), PotentialKind.tv(),
                         mode="penalized", lam=0.02)
    sol = solve(prog)
    assert sol.converged
    _certified(prog, sol)


@pytest.mark.parametrize("potential, plane, lam", [
    ("tv", False, 0.0),
    ("label-noise", False, 0.0),
    ("tv", True, 0.0),
    ("tv", False, 0.02),
    ("label-noise", False, 0.02),
])
def test_solve_keeps_the_three_vector_iterates(ds3, potential, plane, lam, dr_only):
    # the one-matmul relaxation step, the stacked cone operator and the
    # warm-started Newton move only roundoff
    ds = Dataset(*PLANE[5]) if plane else ds3
    kind = PotentialKind.from_flag(potential, ds)
    prog = build_program(ds, enumerate_cells(ds), kind,
                         mode="penalized" if lam else "constrained", lam=lam)
    sol = solve(prog)
    iterations, objective = dr_reference(prog)
    assert sol.iterations == iterations
    assert sol.objective == pytest.approx(objective, rel=1e-12)


def test_solve_calls_project_cones_once_per_iteration(monkeypatch, ds3, dec3, dr_only):
    # the benchmark's tracing counts cone steps by wrapping this module name
    calls = []

    def counted(W, cones):
        calls.append(len(W))
        return project_cones(W, cones)

    monkeypatch.setattr("relucells.solver.project_cones", counted)
    sol = solve(build_program(ds3, dec3, PotentialKind.tv()))
    assert len(calls) == sol.iterations


def test_solution_reports_why_it_stopped(monkeypatch, ds3, dec3, dr_only):
    steps = []

    def counted(num, tl, start=0.0):
        rho, n_steps = _secular_root(num, tl, start)
        steps.append(n_steps)
        return rho, n_steps

    monkeypatch.setattr("relucells.solver._secular_root", counted)
    for kind in (PotentialKind.tv(), PotentialKind.label_noise(ds3)):
        prog = build_program(ds3, dec3, kind)
        for config, reason in [(SolverConfig(), "converged"),
                               (SolverConfig(max_iters=25), "max_iters")]:
            steps.clear()
            sol = solve(prog, config)
            assert sol.converged == (reason == "converged")
            assert sol.diagnostics["stop_reason"] == reason
            # every secular step of the solve, none for the TV soft threshold
            assert sol.diagnostics["newton_steps"] == sum(steps)
            assert (sum(steps) > 0) == (kind.variant.value != "tv")
            payload = json.loads(sol.to_json())["diagnostics"]
            assert payload["stop_reason"] == reason
            assert payload["newton_steps"] == sum(steps)
        assert sol.iterations == 25


FINISHED = [
    ("ds3", "tv", 0.0),
    ("ds3", "label-noise", 0.0),
    ("plane5", "tv", 0.0),
    ("plane1", "tv", 0.0),
    ("plane5", "label-noise", 0.0),
    ("ds3", "tv", 0.02),
    ("ds3", "label-noise", 0.02),
    ("plane5", "tv", 0.02),
]


def _program(ds3, data, potential, lam):
    ds = {"ds3": ds3, "plane5": Dataset(*PLANE[5]), "plane1": Dataset(*PLANE[1])}[data]
    return build_program(ds, enumerate_cells(ds), PotentialKind.from_flag(potential, ds),
                         mode="penalized" if lam else "constrained", lam=lam)


@pytest.mark.parametrize("data, potential, lam", FINISHED)
def test_finish_certifies_the_dr_optimum(ds3, data, potential, lam):
    prog = _program(ds3, data, potential, lam)
    sol = solve(prog)
    iterations, objective = dr_reference(prog)
    assert sol.diagnostics["stop_reason"] == "certified" and sol.converged
    assert 1 <= sol.diagnostics["finish_attempts"]
    assert sol.iterations <= iterations
    assert sol.objective == pytest.approx(objective, rel=1e-7)
    cert = _certified(prog, sol)
    assert cert["alignment_residual"] <= 1e-12
    assert cert["inactive_dual_bound"] <= 1.0 + 1e-9


@pytest.mark.parametrize("data, potential", [("plane1", "tv"), ("ds3", "label-noise")])
def test_declined_attempt_leaves_the_iterates_unchanged(monkeypatch, ds3, data, potential):
    # every attempt runs the real finish on the live iterate and then
    # declines; the solve must equal the loop whose attempts do nothing
    prog = _program(ds3, data, potential, 0.0)
    real, seen = solver._finish, []

    def declined(program, prox_g, x, objective):
        seen.append(x.copy())
        real(program, prox_g, x, objective)
        return None

    monkeypatch.setattr("relucells.solver._finish", declined)
    sol = solve(prog)
    tried, seen = seen, []
    monkeypatch.setattr("relucells.solver._finish",
                        lambda program, prox_g, x, objective: seen.append(x.copy()))
    ref = solve(prog)
    assert sol.iterations == ref.iterations
    assert sol.diagnostics["stop_reason"] == ref.diagnostics["stop_reason"] == "converged"
    assert sol.objective == ref.objective
    assert np.array_equal(sol.u, ref.u) and np.array_equal(sol.v, ref.v)
    assert len(tried) == len(seen) == sol.diagnostics["finish_attempts"]
    assert all(np.array_equal(a, b) for a, b in zip(tried, seen))


@pytest.mark.parametrize("data, potential", [
    ("ds3", "tv"), ("ds3", "label-noise"), ("ds3", "label-noise-exact"),
    ("plane5", "tv"), ("plane5", "label-noise"), ("plane1", "label-noise-exact"),
])
def test_cone_price_matches_a_dense_grid(ds3, data, potential):
    # random multipliers, so that the sup lies inside cones, on walls and
    # on edges; the grid is a lower bound that samples walls and edges, up
    # to the roundoff of v^T Q v next to a wall where the gauge vanishes
    # (a few 1e-9 relative)
    prog = _program(ds3, data, potential, 0.0)
    rng = np.random.default_rng(7)
    blocks = np.arange(prog.n_blocks)
    K = len(prog.cells_used)
    for _ in range(3):
        mult = rng.normal(size=prog.dataset.n)
        Q = (mult @ prog.A).reshape(prog.n_blocks, prog.k)
        price = cone_price(prog, blocks, Q)
        for b in blocks:
            g = prog.gauges[b % K]
            grid = cone_price_grid(Q[b], g.Q, g.kappa,
                                   prog.signs[b][:, None] * prog.normals)
            assert grid <= price[b] * (1.0 + 1e-8) + 1e-9
            assert price[b] == pytest.approx(grid, rel=2e-5, abs=1e-9)


def test_certificate_prices_quadratic_gauges_exactly():
    # the TV maximiser (the projection of q onto the cone) gave 0.806 here,
    # where the label-noise dual gauge peaks at 0.8174
    ds = Dataset(*PLANE[5])
    prog = build_program(ds, enumerate_cells(ds), PotentialKind.label_noise_exact(ds))
    sol = solve(prog)
    cert = optimality_certificate(prog, sol)
    K = len(prog.cells_used)
    W = np.vstack([sol.u, sol.v])
    live = _live_blocks(prog, W, 1e-6 * max(1.0, sol.objective))
    Q = (cert["multipliers"] @ prog.A).reshape(prog.n_blocks, prog.k)
    grid = max(cone_price_grid(Q[b], prog.gauges[b % K].Q, prog.gauges[b % K].kappa,
                               prog.signs[b][:, None] * prog.normals)
               for b in np.flatnonzero(~live))
    assert grid <= cert["inactive_dual_bound"] * (1.0 + 1e-8)
    assert cert["inactive_dual_bound"] == pytest.approx(grid, rel=2e-5)
