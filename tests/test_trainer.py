import numpy as np
import pytest

from oracles import sgd_label_noise_reference
from relucells import trainer
from relucells.errors import ConvergenceError, PreconditionError
from relucells.model import Dataset, Neuron, ParticleNetwork
from relucells.potentials import v_tilde
from relucells.trainer import (
    TrainConfig,
    balancedness,
    gd_weight_decay,
    grad_phi_sq,
    implicit_lambda,
    network_from_json,
    network_to_json,
    objective_and_grads,
    sgd_label_noise,
)


def test_grad_phi_sq_hand_values():
    nrn = Neuron([2.0], 1.0, 3.0)
    # x = 1: pre = 3 active, |x|^2 = 1 -> 9 * 2 + 9 = 27
    assert grad_phi_sq(nrn, 1.0) == pytest.approx(27.0)
    # x = -1: pre = -1 inactive -> 0
    assert grad_phi_sq(nrn, -1.0) == pytest.approx(0.0)
    # hinge x = -0.5: pre = 0, indicator closed at 0 -> 9 * 1.25
    assert grad_phi_sq(nrn, -0.5) == pytest.approx(9.0 * 1.25)


def test_grad_phi_sq_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = rng.normal(size=2), rng.normal(), rng.normal()
        x = rng.normal(size=2)
        if abs(a @ x + b) < 1e-3:
            continue
        h = 1e-6
        grads = []
        for idx in range(4):
            pert = np.zeros(4)
            pert[idx] = h
            phi = lambda p: (c + p[3]) * max(
                (a + p[:2]) @ x + b + p[2], 0.0
            )
            grads.append((phi(pert) - phi(-pert)) / (2 * h))
        want = float(np.sum(np.square(grads)))
        assert grad_phi_sq(Neuron(a, b, c), x) == pytest.approx(want, rel=1e-4)


def test_implicit_lambda_is_mean_of_orbit_objective():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(4, 1)), rng.normal(size=4))
    net = ParticleNetwork(rng.normal(size=(3, 1)), rng.normal(size=3),
                          rng.normal(size=3))
    want = np.mean([
        v_tilde(Neuron(net.A[j], net.b[j], net.c[j]), ds)
        for j in range(3)
    ])
    assert implicit_lambda(net, ds) == pytest.approx(want)


def test_implicit_lambda_duplication_invariance():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.normal(size=(3, 1)), rng.normal(size=3))
    net = ParticleNetwork(rng.normal(size=(2, 1)), rng.normal(size=2),
                          rng.normal(size=2))
    doubled = ParticleNetwork(
        np.vstack([net.A, net.A]), np.concatenate([net.b, net.b]),
        np.concatenate([net.c, net.c]),
    )
    assert implicit_lambda(doubled, ds) == pytest.approx(
        implicit_lambda(net, ds)
    )


def test_objective_gradients_finite_difference(ds3):
    rng = np.random.default_rng(11)
    for kind in ("norm-squared", "path-norm"):
        cfg = TrainConfig(width=4, decay=0.1, decay_potential=kind)
        net = ParticleNetwork(rng.normal(size=(4, 1)), rng.normal(size=4),
                              rng.normal(size=4))
        obj, _, _, gA, gb, gc = objective_and_grads(net, ds3, cfg)
        h = 1e-6
        for arr, grad in ((net.A, gA), (net.b, gb), (net.c, gc)):
            flat = arr.ravel()
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + h
                up = objective_and_grads(net, ds3, cfg)[0]
                flat[idx] = old - h
                down = objective_and_grads(net, ds3, cfg)[0]
                flat[idx] = old
                assert grad.ravel()[idx] == pytest.approx(
                    (up - down) / (2 * h), rel=1e-4, abs=1e-7
                )


def test_config_validation():
    with pytest.raises(PreconditionError):
        TrainConfig(width=0)
    with pytest.raises(PreconditionError):
        TrainConfig(step_size=0.0)
    with pytest.raises(PreconditionError):
        TrainConfig(decay=-1.0)
    with pytest.raises(PreconditionError):
        TrainConfig(decay_potential="l7")
    with pytest.raises(PreconditionError):
        TrainConfig(noise_dist="cauchy")


def test_gd_deterministic(ds3):
    cfg = TrainConfig(width=16, steps=200, step_size=0.5, decay=1e-3, seed=4)
    net1, tr1 = gd_weight_decay(ds3, cfg)
    net2, tr2 = gd_weight_decay(ds3, cfg)
    assert net1.A == pytest.approx(net2.A, abs=0)
    assert tr1.loss == pytest.approx(tr2.loss, abs=0)


def test_gd_decreases_objective(ds3):
    cfg = TrainConfig(width=32, steps=2_000, step_size=0.5, decay=1e-3,
                      seed=0, record_stride=100)
    net, trace = gd_weight_decay(ds3, cfg)
    total = trace.loss + trace.reg_value
    assert total[-1] < total[0]
    # full-batch descent on a smooth objective is monotone at a stable step
    assert np.all(np.diff(total) <= 1e-12)


def test_gd_divergence_detected(ds3):
    cfg = TrainConfig(width=8, steps=5_000, step_size=1e4, decay=1e-3, seed=0)
    with pytest.raises(ConvergenceError):
        gd_weight_decay(ds3, cfg)


def test_balancedness_definitions():
    net = ParticleNetwork(np.array([[3.0]]), np.array([4.0]), np.array([5.0]))
    assert balancedness(net) == pytest.approx(0.0)
    net2 = ParticleNetwork(np.array([[3.0]]), np.array([4.0]), np.array([2.5]))
    assert balancedness(net2) == pytest.approx(0.5)
    # light neurons below the mass cutoff are ignored
    net3 = ParticleNetwork(np.array([[1e-9]]), np.array([0.0]), np.array([1.0]))
    assert balancedness(net3, atom_eps=1e-6) == 0.0


def test_sgd_zero_noise_matches_plain_sgd(ds2):
    cfg0 = TrainConfig(width=8, steps=500, step_size=0.05, noise=0.0, seed=2)
    cfg1 = TrainConfig(width=8, steps=500, step_size=0.05, noise=0.0,
                       noise_dist="gaussian", seed=2)
    net0, _ = sgd_label_noise(ds2, cfg0)
    net1, _ = sgd_label_noise(ds2, cfg1)
    # with eta = 0 the noise draw is inert, so the distribution is irrelevant
    assert net0.A == pytest.approx(net1.A, abs=0)
    assert net0.c == pytest.approx(net1.c, abs=0)


def test_sgd_deterministic_and_seed_sensitive(ds2):
    cfg = TrainConfig(width=8, steps=300, step_size=0.05, noise=0.1, seed=6)
    net1, _ = sgd_label_noise(ds2, cfg)
    net2, _ = sgd_label_noise(ds2, cfg)
    assert net1.c == pytest.approx(net2.c, abs=0)
    cfg_other = TrainConfig(width=8, steps=300, step_size=0.05, noise=0.1,
                            seed=7)
    net3, _ = sgd_label_noise(ds2, cfg_other)
    assert not np.allclose(net1.c, net3.c)


def test_sgd_recorded_loss_is_noise_free(ds2):
    cfg = TrainConfig(width=8, steps=1, step_size=1e-12, noise=5.0, seed=1,
                      record_stride=1)
    net, trace = sgd_label_noise(ds2, cfg)
    # with a vanishing step the recorded losses equal the clean initial loss
    assert trace.loss[0] == pytest.approx(trace.loss[-1], rel=1e-6)


def test_sgd_records_no_decay_term(ds2):
    # label-noise SGD never applies the decay, so it records none either
    base = dict(width=8, steps=300, step_size=0.05, noise=0.1, seed=4,
                record_stride=50)
    net0, _ = sgd_label_noise(ds2, TrainConfig(**base))
    net1, trace = sgd_label_noise(ds2, TrainConfig(decay=0.5, **base))
    assert np.all(trace.reg_value == 0.0)
    for name in ("A", "b", "c"):
        assert np.array_equal(getattr(net1, name), getattr(net0, name))


@pytest.mark.parametrize("noise_dist", ["rademacher", "gaussian"])
@pytest.mark.parametrize(
    "steps, stride", [(40, 1), (500, 7), (300, 1_000)],
    ids=["every-step", "stride-not-dividing", "stride-beyond-steps"],
)
def test_sgd_matches_per_step_reference(monkeypatch, ds2, noise_dist, steps,
                                        stride):
    ds_2d = Dataset(np.array([[-0.5, 0.3], [0.8, -0.2], [0.1, 0.9]]),
                    np.array([0.4, -0.6, 0.2]))
    for ds in (ds2, ds_2d):
        cfg = TrainConfig(width=12, steps=steps, step_size=0.1, noise=0.3,
                          noise_dist=noise_dist, seed=5, record_stride=stride)
        ref_net, ref_trace = sgd_label_noise_reference(ds, cfg)
        # a 13-step block splits the draws at arbitrary points
        for block in (trainer.DRAW_BLOCK, 13):
            monkeypatch.setattr(trainer, "DRAW_BLOCK", block)
            net, trace = sgd_label_noise(ds, cfg)
            for name in ("A", "b", "c"):
                assert np.array_equal(getattr(net, name),
                                      getattr(ref_net, name))
            for name in ("steps", "loss", "lam_value", "reg_value", "support",
                         "grad_norm"):
                assert np.array_equal(getattr(trace, name),
                                      getattr(ref_trace, name))
            assert trace.interpolation_step == ref_trace.interpolation_step


def test_interpolation_step_flag(ds2):
    cfg = TrainConfig(width=64, steps=20_000, step_size=0.5, seed=0,
                      record_stride=10, interp_tol=1e-4, interp_patience=5)
    net, trace = gd_weight_decay(ds2, cfg)
    assert trace.interpolation_step is not None
    at = np.searchsorted(trace.steps, trace.interpolation_step)
    assert np.all(trace.loss[at : at + 5] < 1e-4)


def test_trace_csv_roundtrip(tmp_path, ds2):
    cfg = TrainConfig(width=8, steps=100, step_size=0.1, seed=0)
    _, trace = gd_weight_decay(ds2, cfg)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert back["step"] == pytest.approx(trace.steps)
    assert back["loss"] == pytest.approx(trace.loss)
    assert back["lambda"] == pytest.approx(trace.lam_value)


def test_network_json_roundtrip():
    rng = np.random.default_rng(0)
    net = ParticleNetwork(rng.normal(size=(3, 2)), rng.normal(size=3),
                          rng.normal(size=3))
    back = network_from_json(network_to_json(net))
    assert back.A == pytest.approx(net.A, abs=0)
    assert back.b == pytest.approx(net.b, abs=0)
    assert back.c == pytest.approx(net.c, abs=0)
