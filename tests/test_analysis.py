import json

import numpy as np
import pytest

from oracles import ray_premerge_reference
from relucells.analysis import (
    EffectiveSupport,
    SupportGroup,
    _ray_table,
    cluster_directions,
    compare_supports,
    effective_support,
    groups_to_csv,
    merge_cell_mass,
    one_point_per_cell,
    representer_check,
    sparsity_report,
    support_count,
)
from relucells.model import (
    DIRECTION_MERGE_TOL,
    AtomicMeasure,
    ParticleNetwork,
    RadonMeasure,
    predict_measure,
    project_to_sphere,
)
from relucells.potentials import PotentialKind, potential
from relucells.model import Neuron


def unit(angle):
    return np.array([np.cos(angle), np.sin(angle)])


def test_cluster_directions_single_linkage():
    dirs = np.array([unit(0.0), unit(0.01), unit(0.02), unit(1.0)])
    clusters = cluster_directions(dirs, tau_angle=0.015)
    assert sorted(map(sorted, clusters)) == [[0, 1, 2], [3]]
    # chaining: each link below tau even though endpoints are 0.02 apart
    assert len(cluster_directions(dirs[:3], tau_angle=0.005)) == 3
    # long chains in shuffled order: on the circle, single linkage cuts
    # exactly at the gaps of at least tau
    rng = np.random.default_rng(3)
    ang = np.cumsum(rng.choice([0.01, 0.01, 0.01, 0.03], size=40))
    perm = rng.permutation(40)
    group = np.concatenate([[0], np.cumsum(np.diff(ang) >= 0.015)])[perm]
    want = [np.flatnonzero(group == g).tolist() for g in set(group.tolist())]
    clusters = cluster_directions(np.array([unit(a) for a in ang[perm]]), 0.015)
    assert clusters == sorted(want) and len(clusters) > 1


def _assert_same_rays(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def test_ray_premerge_matches_pairwise_reference():
    rng = np.random.default_rng(21)
    k = 12
    merged = 0
    for trial in range(30):
        d = 1 + trial % 3
        A, b, c = rng.normal(size=(k, d)), rng.normal(size=k), rng.normal(size=k)
        A[3], b[3] = A[0], b[0]  # exact duplicate
        A[6], b[6] = 2.5 * A[1], 2.5 * b[1]  # positively proportional
        A[9], b[9], c[9] = 0.5 * A[2], 0.5 * b[2], -c[2]  # opposite sign
        A[11], b[11], c[11] = A[2], b[2], -0.5 * c[2]
        net = ParticleNetwork(A, b, c)
        thetas = np.hstack([A, b[:, None]])
        norms = np.linalg.norm(thetas, axis=1)
        dirs = thetas / norms[:, None]
        z = np.full(k, 1.0 / k) * c * norms
        want = ray_premerge_reference(dirs, z, [[j] for j in range(k)],
                                      DIRECTION_MERGE_TOL)
        _assert_same_rays(_ray_table(net), want)
        nu = project_to_sphere(net.to_measure())
        _assert_same_rays((nu.directions, nu.masses, want[2]), want)
        merged += k - len(want[1])
    assert merged > 0  # the cases above do exercise merging

    # exactly unit directions on the circle merge whatever the rounding
    dirs = np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 0.0], [0.6, 0.8],
                     [0.0, 1.0], [-0.6, -0.8], [0.6, 0.8]])
    z = np.array([1.0, 2.0, -0.5, 3.0, 1.0, 1.0, -4.0])
    want = ray_premerge_reference(dirs, z, [[j] for j in range(7)],
                                  DIRECTION_MERGE_TOL)
    assert want[2] == [[0, 2], [1, 3, 6], [4], [5]]
    _assert_same_rays(_ray_table(RadonMeasure(dirs, z)), want)

    # exact duplicates merge although u @ u rounds below 1, where
    # arccos(u @ u) reads 1.5e-8 rad, far above DIRECTION_MERGE_TOL
    net = ParticleNetwork(np.array([[1.0], [1.0]]), np.array([2.0, 2.0]),
                          np.array([1.0, 2.0]))
    dirs, z, members = _ray_table(net)
    assert dirs[0] @ dirs[0] < 1.0
    assert z == pytest.approx([1.5 * np.sqrt(5.0)]) and members == [[0, 1]]
    assert project_to_sphere(net.to_measure()).k == 1


def test_effective_support_counts_rays(dec3):
    w0 = dec3.cells[0].witness
    w0 = w0 / np.linalg.norm(w0)
    nu = RadonMeasure(np.array([w0, unit(np.arctan2(w0[1], w0[0]) + 1e-8)]),
                      np.array([1.0, 0.5]))
    supp = effective_support(nu, dec3)
    assert supp.count == 1
    assert supp.groups[0].mass == pytest.approx(1.5)
    assert supp.groups[0].members == (0, 1)


def test_effective_support_drops_light_atoms(dec3):
    w0 = dec3.cells[0].witness / np.linalg.norm(dec3.cells[0].witness)
    w1 = dec3.cells[1].witness / np.linalg.norm(dec3.cells[1].witness)
    nu = RadonMeasure(np.array([w0, w1]), np.array([1.0, 1e-9]))
    supp = effective_support(nu, dec3)
    assert supp.count == 1


def test_effective_support_flags_boundary(ds3, dec3):
    x = ds3.lifted[0]
    wall = np.array([-x[1], x[0]])
    wall = wall / np.linalg.norm(wall)
    interior = dec3.cells[0].witness / np.linalg.norm(dec3.cells[0].witness)
    nu = RadonMeasure(np.array([wall, interior]), np.array([1.0, 1.0]))
    supp = effective_support(nu, dec3)
    flags = {g.boundary for g in supp.groups}
    assert flags == {True, False}
    assert supp.boundary_atoms == (0,)


def test_effective_support_network_input(dec3):
    net = ParticleNetwork(np.array([[1.0], [2.0]]), np.array([0.5, 1.0]),
                          np.array([1.0, -1.0]))
    # the two neurons share a ray with opposite signs: masses partially cancel
    supp = effective_support(net, dec3)
    assert supp.count == 1
    n1 = np.sqrt(1.25)
    n2 = np.sqrt(5.0)
    assert supp.groups[0].mass == pytest.approx((n1 - n2) / 2)


def test_support_count_no_decomposition():
    nu = RadonMeasure(np.array([unit(0.1), unit(0.11), unit(2.0)]),
                      np.array([1.0, 1.0, 2.0]))
    assert support_count(nu, tau_angle=5e-2) == 2
    assert support_count(nu, tau_angle=1e-3) == 3


def test_merge_preserves_predictions_and_shrinks(ds3, dec3):
    rng = np.random.default_rng(8)
    w = dec3.cells[2].witness
    # several atoms inside one cell, same output sign
    thetas = np.array([w * (1 + 0.3 * rng.random()) for _ in range(4)])
    perturb = rng.normal(scale=1e-3, size=(4, 2))
    thetas = thetas + perturb
    mu = AtomicMeasure(thetas[:, :1], thetas[:, 1], np.ones(4),
                       rng.random(4))
    merged = merge_cell_mass(mu, dec3)
    assert merged.k < mu.k
    assert predict_measure(merged, ds3.points) == pytest.approx(
        predict_measure(mu, ds3.points), abs=1e-12
    )


def test_merge_is_idempotent(ds3, dec3):
    w = dec3.cells[1].witness
    mu = AtomicMeasure(
        np.array([[w[0]], [2 * w[0]]]), np.array([w[1], 2 * w[1]]),
        np.array([1.0, 1.0]), np.array([0.5, 0.5]),
    )
    once = merge_cell_mass(mu, dec3)
    twice = merge_cell_mass(once, dec3)
    assert twice.thetas == pytest.approx(once.thetas)
    assert twice.c == pytest.approx(once.c)
    assert twice.p == pytest.approx(once.p)


def test_merge_lowers_potential_for_non_proportional_atoms(ds3, dec3):
    kind = PotentialKind.tv()
    rng = np.random.default_rng(12)
    lowered = 0
    for _ in range(50):
        ci = int(rng.integers(dec3.size))
        w = dec3.cells[ci].witness
        margin = dec3.cells[ci].margin
        t1 = w + rng.normal(scale=0.2 * margin, size=2)
        t2 = 2.0 * w + rng.normal(scale=0.2 * margin, size=2)
        mu = AtomicMeasure(np.array([t1[:1], t2[:1]]),
                           np.array([t1[1], t2[1]]),
                           np.ones(2), np.array([0.6, 0.4]))
        before = sum(
            mu.p[j] * potential(kind, Neuron(mu.A[j], mu.b[j], mu.c[j]))
            for j in range(2)
        )
        merged = merge_cell_mass(mu, dec3)
        after = sum(
            merged.p[j]
            * potential(kind, Neuron(merged.A[j], merged.b[j], merged.c[j]))
            for j in range(merged.k)
        )
        assert after <= before + 1e-12
        if after < before - 1e-12:
            lowered += 1
    assert lowered > 0


def test_one_point_per_cell_detects_violation():
    g1 = SupportGroup(3, unit(0.1), 1.0, (0,))
    g2 = SupportGroup(3, unit(0.5), 1.0, (1,))
    g3 = SupportGroup(5, unit(2.0), 1.0, (2,))
    supp = EffectiveSupport((g1, g2, g3), 0.0, 1e-6, ())
    assert one_point_per_cell(supp) == [3]


def test_one_point_per_cell_skips_boundary_groups():
    g1 = SupportGroup(3, unit(0.1), 1.0, (0,), boundary=True)
    g2 = SupportGroup(3, unit(0.5), 1.0, (1,))
    supp = EffectiveSupport((g1, g2), 0.0, 1e-6, (0,))
    assert one_point_per_cell(supp) == []


def test_compare_supports_matching():
    a = EffectiveSupport(
        (SupportGroup(0, unit(0.1), 1.0, (0,)),
         SupportGroup(2, unit(1.0), -0.5, (1,))), 0.0, 1e-6, ())
    b = EffectiveSupport(
        (SupportGroup(0, unit(0.1 + 2e-5), 1.1, (0,)),
         SupportGroup(4, unit(2.0), 0.3, (1,))), 0.0, 1e-6, ())
    rep = compare_supports(a, b)
    assert rep["max_delta"] == pytest.approx(2e-5, rel=1e-3)
    assert rep["unmatched_cells_1"] == [2]
    assert rep["unmatched_cells_2"] == [4]
    assert rep["extra_groups"] == 0


def test_compare_supports_extra_groups_in_shared_cell():
    a = EffectiveSupport(
        (SupportGroup(0, unit(0.1), 1.0, (0,)),
         SupportGroup(0, unit(0.6), 1.0, (1,))), 0.0, 1e-6, ())
    b = EffectiveSupport(
        (SupportGroup(0, unit(0.1), 1.0, (0,)),), 0.0, 1e-6, ())
    rep = compare_supports(a, b)
    assert len(rep["matched"]) == 1
    assert rep["matched"][0]["delta"] == pytest.approx(0.0, abs=1e-12)
    assert rep["extra_groups"] == 1


def test_compare_supports_matches_a_wall_ray_on_both_sides(dec3):
    # criterion 07's data: the optimum holds the mass of a wall ray, which
    # locate_cell puts in one cell, where a trained network holds it in
    # groups 2e-4 rad to either side of the wall
    wall = np.arctan2(-0.2, 1.0)  # the ray (1, -0.2) is on the wall of x = 0.2
    trained = RadonMeasure(np.array([unit(wall + 2e-4), unit(wall - 2e-4), unit(1.37)]),
                           np.array([0.6, 0.5, -0.2]))
    optimum = RadonMeasure(np.array([unit(wall), unit(1.37)]), np.array([1.1, -0.2]))
    s1 = effective_support(trained, dec3, tau_angle=5e-2)
    s2 = effective_support(optimum, dec3)
    assert len(s1.cells()) == 3 and len(s2.cells()) == 2
    assert [g.wall_cells for g in s2.groups] == [(1, 2), ()]
    assert [g.cell_index for g in s1.groups] == [1, 2, 5]
    for a, b in [(s1, s2), (s2, s1)]:
        rep = compare_supports(a, b)
        assert rep["unmatched_cells_1"] == rep["unmatched_cells_2"] == []
        assert rep["extra_groups"] == 0
        assert sorted(m["cell"] for m in rep["matched"]) == [1, 2, 5]
        assert rep["max_delta"] == pytest.approx(2e-4, rel=1e-6)


def test_representer_check_inputs():
    supp = EffectiveSupport((SupportGroup(0, unit(0.0), 1.0, (0,)),),
                            0.0, 1e-6, ())
    assert representer_check(supp, 1)
    assert not representer_check(supp, 0)


def test_sparsity_report_json(dec3):
    w0 = dec3.cells[0].witness / np.linalg.norm(dec3.cells[0].witness)
    nu = RadonMeasure(np.array([w0]), np.array([1.0]))
    supp = effective_support(nu, dec3)
    rep = sparsity_report(supp, n=3, reference=supp)
    payload = json.loads(rep.to_json())
    assert payload["support_count"] == 1
    assert payload["representer_ok"] is True
    assert payload["violations"] == []
    assert payload["comparison"]["max_delta"] == pytest.approx(0.0)


def test_groups_to_csv(tmp_path, dec3):
    w0 = dec3.cells[0].witness / np.linalg.norm(dec3.cells[0].witness)
    w1 = dec3.cells[1].witness / np.linalg.norm(dec3.cells[1].witness)
    nu = RadonMeasure(np.array([w0, w1]), np.array([1.0, -2.0]))
    supp = effective_support(nu, dec3)
    path = tmp_path / "groups.csv"
    groups_to_csv(supp, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "cell,dir0,dir1,mass,members"
    assert len(rows) == 3
