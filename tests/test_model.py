import numpy as np
import pytest

from relucells.errors import (
    DatasetFormatError,
    DimensionMismatchError,
    ZeroDirectionError,
)
from relucells.model import (
    DIRECTION_MERGE_TOL,
    AtomicMeasure,
    Dataset,
    Neuron,
    ParticleNetwork,
    RadonMeasure,
    angle,
    load_dataset_csv,
    merge_identical_rays,
    phi,
    predict_measure,
    predict_network,
    predict_radon,
    project_to_sphere,
    rescale,
    save_dataset_csv,
)


def test_dataset_shapes():
    ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0]))
    assert ds.n == 2 and ds.d == 2
    assert ds.lifted.shape == (2, 3)
    assert ds.lifted[:, -1] == pytest.approx([1.0, 1.0])


def test_dataset_validation():
    with pytest.raises(DimensionMismatchError):
        Dataset(np.zeros((2, 1)), np.zeros(3))
    with pytest.raises(DatasetFormatError):
        Dataset(np.array([[np.nan]]), np.array([0.0]))


def test_csv_roundtrip(tmp_path):
    ds = Dataset(np.array([[0.25], [-1.5]]), np.array([1.0, 2.0]))
    path = tmp_path / "d.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert back.points == pytest.approx(ds.points)
    assert back.targets == pytest.approx(ds.targets)


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,z\n1,2\n")
    with pytest.raises(DatasetFormatError):
        load_dataset_csv(p)
    p.write_text("x1,y\n1,abc\n")
    with pytest.raises(DatasetFormatError, match="column 2"):
        load_dataset_csv(p)
    p.write_text("x1,y\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_dataset_csv(p)


def test_phi_and_rescale_invariance():
    nrn = Neuron([2.0], -1.0, 3.0)
    assert phi(nrn, 1.0) == pytest.approx(3.0)
    assert phi(nrn, 0.0) == pytest.approx(0.0)  # preactivation -1 clips
    for lam in (0.5, 2.0, 7.3):
        scaled = rescale(nrn, lam)
        for x in (-1.0, 0.3, 2.0):
            assert phi(scaled, x) == pytest.approx(phi(nrn, x))


def test_rescale_rejects_nonpositive():
    with pytest.raises(ValueError):
        rescale(Neuron([1.0], 0.0, 1.0), 0.0)


def test_network_measure_radon_agree():
    rng = np.random.default_rng(3)
    net = ParticleNetwork(
        rng.normal(size=(5, 1)), rng.normal(size=5), rng.normal(size=5)
    )
    X = rng.normal(size=(7, 1))
    f_net = predict_network(net, X)
    mu = net.to_measure()
    f_mu = predict_measure(mu, X)
    nu = project_to_sphere(mu)
    f_nu = predict_radon(nu, X)
    assert f_mu == pytest.approx(f_net)
    assert f_nu == pytest.approx(f_net)


def test_predict_scalar_input_d1():
    net = ParticleNetwork(np.array([[1.0]]), np.array([0.0]), np.array([2.0]))
    assert predict_network(net, 1.5) == pytest.approx([3.0])
    # a 1-d array of scalars is a batch when d = 1
    assert predict_network(net, np.array([1.0, 2.0])) == pytest.approx([2.0, 4.0])


def test_project_to_sphere_merges_rays():
    mu = AtomicMeasure(
        np.array([[1.0], [2.0]]), np.array([0.0, 0.0]),
        np.array([1.0, 0.5]), np.array([1.0, 1.0]),
    )
    nu = project_to_sphere(mu)
    assert nu.k == 1
    assert nu.masses[0] == pytest.approx(1.0 * 1.0 + 0.5 * 2.0)


def test_project_to_sphere_drops_zero_outer():
    mu = AtomicMeasure(
        np.array([[1.0], [1.0]]), np.array([0.0, 1.0]),
        np.array([1.0, 0.0]), np.array([1.0, 1.0]),
    )
    assert project_to_sphere(mu).k == 1


def test_project_to_sphere_rejects_zero_direction():
    mu = AtomicMeasure(
        np.array([[0.0]]), np.array([0.0]), np.array([1.0]), np.array([1.0])
    )
    with pytest.raises(ZeroDirectionError):
        project_to_sphere(mu)


def test_radon_requires_unit_directions():
    with pytest.raises(ZeroDirectionError):
        RadonMeasure(np.array([[2.0, 0.0]]), np.array([1.0]))


def test_atomic_measure_rejects_negative_mass():
    with pytest.raises(ValueError):
        AtomicMeasure(
            np.array([[1.0]]), np.array([0.0]), np.array([1.0]), np.array([-0.5])
        )


def test_opposite_sign_same_ray_cancels():
    mu = AtomicMeasure(
        np.array([[1.0], [1.0]]), np.array([0.0, 0.0]),
        np.array([1.0, -1.0]), np.array([1.0, 1.0]),
    )
    nu = project_to_sphere(mu)
    assert nu.k == 1
    assert nu.masses[0] == pytest.approx(0.0)
    assert nu.tv_norm == pytest.approx(0.0)


def test_merge_identical_rays_joins_a_chain():
    # neighbours 0.6 tol apart and the ends 1.2 tol apart: single linkage
    # makes one ray, where a greedy first match would keep two
    t = 0.6 * DIRECTION_MERGE_TOL
    dirs = np.array([[np.cos(a), np.sin(a)] for a in (0.0, t, 2 * t)])
    assert angle(dirs[0], dirs[2]) >= DIRECTION_MERGE_TOL
    heads, summed, rep = merge_identical_rays(dirs, np.array([1.0, 2.0, -0.5]))
    assert heads.tolist() == [0] and rep.tolist() == [0, 0, 0]
    assert summed[0] == 2.5
