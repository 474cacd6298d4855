import numpy as np
import pytest

from conftest import random_generic_dataset
from oracles import grid_orbit_minimum
from relucells.errors import PreconditionError
from relucells.arrangement import enumerate_cells
from relucells.model import Dataset, Neuron, ParticleNetwork, rescale
from relucells.potentials import (
    PotentialKind,
    Variant,
    at_bulk,
    cell_gauge,
    potential,
    rescale_minimize,
    second_moments,
    weight,
)
from relucells.trainer import implicit_lambda


def _kinds(ds):
    return [
        PotentialKind.tv(),
        PotentialKind.label_noise(ds),
        PotentialKind.label_noise_exact(ds),
    ]


def test_weight_tv():
    assert weight(PotentialKind.tv(), [3.0, 4.0]) == pytest.approx(5.0)


def test_weight_label_noise_single_point():
    ds = Dataset(np.array([[1.0]]), np.array([0.0]))
    kind = PotentialKind.label_noise(ds)
    assert weight(kind, [1.0, 0.0]) == pytest.approx(1.0)
    # inactive direction has zero weight
    assert weight(kind, [-1.0, 0.0]) == pytest.approx(0.0)


@pytest.mark.parametrize("n, d", [(40, 1), (30, 2)])
def test_batched_weight_matches_single(n, d):
    rng = np.random.default_rng(n + d)
    ds = Dataset(rng.normal(size=(n, d)), rng.normal(size=n))
    thetas = rng.normal(size=(25, d + 1))
    thetas[0, -1] = -50.0  # inactive on every point: zero label-noise weight
    for kind in _kinds(ds):
        batch = weight(kind, thetas)
        assert batch.shape == (25,)
        single = np.array([weight(kind, th) for th in thetas])
        np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0.0)


def test_a_point_on_the_hinge_is_not_counted():
    # relu'(0) = 0, as in the cell gauges: a wall atom has pre = +-roundoff
    ds = Dataset(np.array([[-1.0], [0.2], [1.1]]), np.array([0.0, 0.0, 0.0]))
    exact = PotentialKind.label_noise_exact(ds)
    for pre0 in (-1e-15, 0.0, 1e-15):
        theta = np.array([1.0, 1.0 + pre0])  # pre on point 0 is pre0
        R, S = second_moments(ds.points, theta[None, :1], theta[1:])
        assert S[0, 0] == 0.0 and S[1, 0] > 0.0 and S[2, 0] > 0.0
        A = np.mean(R)
        assert weight(exact, theta) == pytest.approx(2.0 * np.sqrt(A * np.mean(S)))
        assert weight(exact, theta) == pytest.approx(
            2.0 * np.sqrt(A * (2.0 + 0.2**2 + 1.1**2) / 3.0), rel=1e-12)


def test_potential_values():
    ds = Dataset(np.array([[1.0]]), np.array([0.0]))
    assert potential(PotentialKind.tv(), Neuron([3.0], 4.0, 2.0)) == pytest.approx(10.0)
    assert potential(
        PotentialKind.label_noise(ds), Neuron([1.0], 0.0, 1.0)
    ) == pytest.approx(1.0)
    assert potential(
        PotentialKind.label_noise_exact(ds), Neuron([1.0], 0.0, 1.0)
    ) == pytest.approx(2.0 * np.sqrt(2.0))


def test_kind_requires_dataset():
    with pytest.raises(PreconditionError):
        PotentialKind(Variant.LABEL_NOISE_PAPER)


def test_from_flag():
    ds = Dataset(np.array([[1.0]]), np.array([0.0]))
    assert PotentialKind.from_flag("tv", ds).variant is Variant.TV
    assert PotentialKind.from_flag("label-noise", ds).dataset is ds


def test_rescale_minimize_closed_form():
    ds = Dataset(np.array([[1.0]]), np.array([0.0]))
    lam, val = rescale_minimize(Neuron([1.0], 0.0, 1.0), ds)
    assert lam == pytest.approx(2.0**0.25)
    assert val == pytest.approx(2.0 * np.sqrt(2.0))


def test_rescale_minimize_inactive():
    ds = Dataset(np.array([[1.0]]), np.array([0.0]))
    lam, val = rescale_minimize(Neuron([-1.0], -1.0, 1.0), ds)
    assert (lam, val) == (1.0, 0.0)


def test_rescale_minimize_matches_grid():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        ds = Dataset(rng.normal(size=(n, 1)), rng.normal(size=n))
        nrn = Neuron(rng.normal(size=1), rng.normal(), rng.normal())
        _, val = rescale_minimize(nrn, ds)
        grid = grid_orbit_minimum(nrn.a, nrn.b, nrn.c, ds.points)
        assert val == pytest.approx(grid, rel=1e-6, abs=1e-12)


def test_rescale_minimize_orbit_invariant():
    ds = Dataset(np.array([[0.5], [-1.2]]), np.zeros(2))
    nrn = Neuron([0.8], 0.3, -1.1)
    _, v0 = rescale_minimize(nrn, ds)
    for lam in (0.25, 3.0):
        _, v1 = rescale_minimize(rescale(nrn, lam), ds)
        assert v1 == pytest.approx(v0)


def test_implicit_lambda_orbit_objective():
    ds = Dataset(np.array([[1.0]]), np.array([0.0]))
    nrn = Neuron([1.0], 0.0, 1.0)
    # a width-1 network's Lambda is the orbit objective lam^2 A + B / lam^2,
    # here with A=1, B=2
    for lam in (0.5, 1.0, 2.0):
        r = rescale(nrn, lam)
        net = ParticleNetwork(r.a[None, :], np.array([r.b]), np.array([r.c]))
        assert implicit_lambda(net, ds) == pytest.approx(
            lam**2 + 2.0 / lam**2
        )


def test_cell_gauge_tv(dec3):
    g = cell_gauge(PotentialKind.tv(), dec3, 0)
    v = np.array([0.3, -0.4])
    assert g(v) == pytest.approx(0.5)


def test_cell_gauge_matches_potential_on_cell(ds3, dec3):
    rng = np.random.default_rng(2)
    ds_plane = random_generic_dataset(np.random.default_rng(5), 4, 2)
    for ds, dec in ((ds3, dec3), (ds_plane, enumerate_cells(ds_plane))):
        for kind in _kinds(ds):
            for i, cell in enumerate(dec.cells):
                g = cell_gauge(kind, dec, i)
                for _ in range(5):
                    c = rng.normal()
                    t = 0.5 + rng.random()
                    theta = t * cell.witness
                    nrn = Neuron(theta[:-1], theta[-1], c)
                    assert g(c * theta) == pytest.approx(
                        potential(kind, nrn), abs=1e-12
                    )


def test_cell_gauge_empty_active_set(ds3, dec3):
    all_neg = tuple([-1] * ds3.n)
    idx = dec3.lookup[all_neg]
    g = cell_gauge(PotentialKind.label_noise(ds3), dec3, idx)
    assert g(np.array([1.0, -2.0])) == pytest.approx(0.0)


def test_midpoint_convexity_random():
    rng = np.random.default_rng(21)
    ds = random_generic_dataset(rng, 3, 1)
    kind = PotentialKind.label_noise(ds)
    for _ in range(300):
        th1 = rng.normal(size=2)
        th2 = rng.normal(size=2)
        mid = 0.5 * (th1 + th2)
        lhs = weight(kind, mid)
        rhs = 0.5 * weight(kind, th1) + 0.5 * weight(kind, th2)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_at_bulk(ds3, dec3):
    all_pos = tuple([1] * ds3.n)
    all_neg = tuple([-1] * ds3.n)
    assert at_bulk(dec3, dec3.lookup[all_pos])
    assert not at_bulk(dec3, dec3.lookup[all_neg])
