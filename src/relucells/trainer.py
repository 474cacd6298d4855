"""Finite-width particle training dynamics.

Two drivers over the width-m network f(x) = (1/m) sum_j c_j relu(a_j.x + b_j):

  * gd_weight_decay: full-batch gradient descent on
        (1/n) sum_i 1/2 (f(x_i) - y_i)^2 + (lam/m) sum_j V(theta_j),
    with V either the squared parameter norm or the path norm |c|·||(a,b)||.
  * sgd_label_noise: single-sample SGD where each sampled label is
    perturbed, y~ = y + eta * r, and the step is taken on (f(x) - y~)^2.
    No explicit penalty; the implicit regulariser Lambda (the dataset
    average of the squared parameter gradient of each neuron, averaged
    over neurons) is tracked along the trace.

Hinges use derivative 0 exactly at zero preactivation, so neurons sitting
exactly on a hinge stay frozen; the Lambda/grad_phi_sq indicator uses the
closed (>=) convention instead, matching the closed-cell geometry.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .analysis import support_count
from .errors import ConvergenceError, PreconditionError
from .model import Dataset, Neuron, ParticleNetwork, relu

DIVERGENCE_FACTOR = 1e6

# Label-noise SGD steps whose sample indices and noise are drawn in one
# generator call; bounds memory for any record_stride, and any block size
# gives the same stream.
DRAW_BLOCK = 65_536


@dataclass(frozen=True)
class TrainConfig:
    width: int = 50
    steps: int = 10_000
    step_size: float = 1e-2
    decay: float = 0.0  # explicit penalty strength lam
    decay_potential: str = "norm-squared"  # or "path-norm"
    noise: float = 0.0  # label noise size eta
    noise_dist: str = "rademacher"  # or "gaussian"
    seed: int = 0
    init_scale: float = 1.0
    record_stride: int = 10
    interp_tol: float = 1e-4  # loss level that counts as interpolation
    interp_patience: int = 100  # consecutive records below tol

    def __post_init__(self):
        if self.width < 1 or self.steps < 1 or self.step_size <= 0:
            raise PreconditionError("width >= 1, steps >= 1, step_size > 0")
        if self.decay < 0 or self.noise < 0:
            raise PreconditionError("decay and noise must be nonnegative")
        if self.decay_potential not in ("norm-squared", "path-norm"):
            raise PreconditionError(
                f"unknown decay potential {self.decay_potential!r}"
            )
        if self.noise_dist not in ("rademacher", "gaussian"):
            raise PreconditionError(f"unknown noise distribution {self.noise_dist!r}")


@dataclass
class TrainTrace:
    steps: np.ndarray
    loss: np.ndarray  # noise-free train loss (1/n) sum 1/2 (f - y)^2
    lam_value: np.ndarray  # implicit regulariser Lambda
    reg_value: np.ndarray  # explicit decay term (lam/m) sum V; 0 for label noise
    support: np.ndarray  # ray count of the current network
    grad_norm: np.ndarray  # full-batch objective gradient norm
    interpolation_step: int | None = field(default=None)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["step", "loss", "lambda", "reg", "support", "gradnorm"]
            )
            for row in zip(
                self.steps, self.loss, self.lam_value, self.reg_value,
                self.support, self.grad_norm,
            ):
                writer.writerow(
                    [int(row[0])] + [repr(float(v)) for v in row[1:4]]
                    + [int(row[4]), repr(float(row[5]))]
                )


def grad_phi_sq(neuron: Neuron, x) -> float:
    """Squared parameter-gradient norm of the neuron output at one input.

    |grad_{(a,b,c)} c relu(a.x + b)|^2
        = c^2 (1 + |x|^2) 1[a.x + b >= 0] + relu(a.x + b)^2.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pre = float(neuron.a @ x + neuron.b)
    active = 1.0 if pre >= 0.0 else 0.0
    return neuron.c**2 * (1.0 + float(x @ x)) * active + relu(pre) ** 2


def _grad_phi_sq_matrix(net: ParticleNetwork, dataset: Dataset) -> np.ndarray:
    """(n, m) table of grad_phi_sq(theta_j, x_i)."""
    pre = dataset.points @ net.A.T + net.b
    active = (pre >= 0.0).astype(float)
    sq = 1.0 + np.sum(dataset.points**2, axis=1)
    return net.c**2 * sq[:, None] * active + relu(pre) ** 2


def implicit_lambda(net: ParticleNetwork, dataset: Dataset) -> float:
    """(1/m) sum_j E_D[grad_phi_sq(theta_j, x)]."""
    return float(np.mean(_grad_phi_sq_matrix(net, dataset)))


def network_to_json(net: ParticleNetwork) -> str:
    return json.dumps(
        {"A": net.A.tolist(), "b": net.b.tolist(), "c": net.c.tolist()},
        indent=2,
    )


def network_from_json(text: str) -> ParticleNetwork:
    obj = json.loads(text)
    return ParticleNetwork(np.array(obj["A"]), np.array(obj["b"]),
                           np.array(obj["c"]))


def _decay_value_grads(A: np.ndarray, b: np.ndarray, c: np.ndarray, kind: str):
    """Explicit penalty sum_j V(theta_j) and its per-parameter gradients."""
    if kind == "norm-squared":
        val = float(np.sum(A**2) + np.sum(b**2) + np.sum(c**2))
        return val, 2.0 * A, 2.0 * b, 2.0 * c
    # path norm |c| * ||(a, b)||; subgradient 0 at either zero factor
    norms = np.sqrt(np.sum(A**2, axis=1) + b**2)
    absc = np.abs(c)
    val = float(np.sum(absc * norms))
    safe = np.where(norms > 0, norms, 1.0)
    gA = (absc / safe)[:, None] * A
    gb = (absc / safe) * b
    gc = np.sign(c) * norms
    return val, gA, gb, gc


def _loss_and_grads(A, b, c, X, y, decay: float, decay_potential: str):
    """Data loss, decay term and full-batch objective gradients on raw arrays.

    Returns (data loss, decay term, grad_A, grad_b, grad_c).
    """
    n, m = X.shape[0], A.shape[0]
    pre = X @ A.T + b  # (n, m)
    act = relu(pre)
    resid = act @ c / m - y
    loss = 0.5 * float(resid @ resid) / n

    # relu'(0) = 0: the hinge contributes nothing
    mask = (pre > 0.0).astype(float)
    rmask = mask * resid[:, None]
    gA = (rmask.T @ X) * c[:, None] / (n * m)
    gb = np.sum(rmask, axis=0) * c / (n * m)
    gc = act.T @ resid / (n * m)

    reg = 0.0
    if decay > 0.0:
        val, dA, db, dc = _decay_value_grads(A, b, c, decay_potential)
        scale = decay / m
        reg = scale * val
        gA = gA + scale * dA
        gb = gb + scale * db
        gc = gc + scale * dc
    return loss, reg, gA, gb, gc


def objective_and_grads(
    net: ParticleNetwork, dataset: Dataset, config: TrainConfig
):
    """Full-batch objective value and gradients (data term + decay term).

    Returns (objective, data loss, decay term, grad_A, grad_b, grad_c).
    """
    loss, reg, gA, gb, gc = _loss_and_grads(
        net.A, net.b, net.c, dataset.points, dataset.targets,
        config.decay, config.decay_potential,
    )
    return loss + reg, loss, reg, gA, gb, gc


def _init_network(config: TrainConfig, d: int, rng) -> ParticleNetwork:
    m = config.width
    s = config.init_scale
    A = rng.normal(0.0, s / np.sqrt(d + 1), size=(m, d))
    b = rng.normal(0.0, s / np.sqrt(d + 1), size=m)
    c = s * rng.choice([-1.0, 1.0], size=m)
    return ParticleNetwork(A, b, c)


def _streams(seed: int):
    """Independent generators for init, data sampling and label noise."""
    init_ss, sample_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.Generator(np.random.Philox(init_ss)),
        np.random.Generator(np.random.Philox(sample_ss)),
        np.random.Generator(np.random.Philox(noise_ss)),
    )


def _record(trace_rows, step, net, dataset, loss, reg, gnorm):
    lam_val = implicit_lambda(net, dataset)
    supp = support_count(net)
    trace_rows.append((step, loss, lam_val, reg, supp, gnorm))


def _finish_trace(trace_rows, config) -> TrainTrace:
    arr = np.array(trace_rows, dtype=float)
    trace = TrainTrace(
        arr[:, 0].astype(int), arr[:, 1], arr[:, 2], arr[:, 3],
        arr[:, 4].astype(int), arr[:, 5],
    )
    below = trace.loss < config.interp_tol
    run = 0
    for i, flag in enumerate(below):
        run = run + 1 if flag else 0
        if run >= config.interp_patience:
            trace.interpolation_step = int(trace.steps[i - run + 1])
            break
    return trace


def _check_divergence(loss, initial_loss, step):
    if not np.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
        raise ConvergenceError(
            f"training diverged at step {step}: loss {loss:.3e} "
            f"(initial {initial_loss:.3e})"
        )


def gd_weight_decay(
    dataset: Dataset, config: TrainConfig
) -> tuple[ParticleNetwork, TrainTrace]:
    """Full-batch gradient descent on the penalized interpolation objective."""
    rng_init, _, _ = _streams(config.seed)
    net = _init_network(config, dataset.d, rng_init)
    A, b, c = net.A.copy(), net.b.copy(), net.c.copy()
    eps = config.step_size
    X, y = dataset.points, dataset.targets

    trace_rows: list = []
    initial_loss = None
    for step in range(config.steps + 1):
        loss, reg, gA, gb, gc = _loss_and_grads(
            A, b, c, X, y, config.decay, config.decay_potential
        )
        obj = loss + reg
        if initial_loss is None:
            initial_loss = max(obj, 1e-12)
        _check_divergence(obj, initial_loss, step)
        if step % config.record_stride == 0 or step == config.steps:
            net = ParticleNetwork(A.copy(), b.copy(), c.copy())
            gnorm = float(
                np.sqrt(np.sum(gA**2) + np.sum(gb**2) + np.sum(gc**2))
            )
            _record(trace_rows, step, net, dataset, loss, reg, gnorm)
        if step == config.steps:
            break
        A = A - eps * gA
        b = b - eps * gb
        c = c - eps * gc
    return ParticleNetwork(A, b, c), _finish_trace(trace_rows, config)


def _perturbed_labels(dataset: Dataset, config: TrainConfig, rng_sample,
                      rng_noise):
    """Sampled index and perturbed label y~ of every SGD step.

    Drawn DRAW_BLOCK steps per generator call; a block replays the same
    stream as one scalar draw per step.
    """
    left = config.steps
    while left > 0:
        size = min(left, DRAW_BLOCK)
        idx = rng_sample.integers(dataset.n, size=size)
        if config.noise_dist == "rademacher":
            r = rng_noise.choice([-1.0, 1.0], size=size)
        else:
            r = rng_noise.normal(size=size)
        ytil = dataset.targets[idx] + config.noise * r
        yield from zip(idx.tolist(), ytil.tolist())
        left -= size


def sgd_label_noise(
    dataset: Dataset, config: TrainConfig
) -> tuple[ParticleNetwork, TrainTrace]:
    """Single-sample SGD with perturbed labels y~ = y + eta * r.

    The step is taken on the squared error (f(x) - y~)^2 of one sampled
    point; recorded losses are noise-free full-batch values. The explicit
    decay term is ignored here, the label noise is the regulariser.
    Sample indices and label noise are drawn in blocks of steps; this
    replays the per-step stream exactly, so a seed reproduces earlier runs
    and CLI artifacts bit for bit.
    """
    rng_init, rng_sample, rng_noise = _streams(config.seed)
    net = _init_network(config, dataset.d, rng_init)
    A, b, c = net.A.copy(), net.b.copy(), net.c.copy()
    eps = config.step_size
    m = config.width
    X, y = dataset.points, dataset.targets
    rows = list(X)
    draws = _perturbed_labels(dataset, config, rng_sample, rng_noise)
    # per-step buffers; A, b and c are updated in place
    pre, act, t = np.empty(m), np.empty(m), np.empty(m)
    active = np.empty(m, dtype=bool)
    tA = np.empty_like(A)

    trace_rows: list = []
    initial_loss = None
    for step in range(config.steps + 1):
        if step % config.record_stride == 0 or step == config.steps:
            # decay stripped so recorded gradients are pure data gradients
            loss, reg, gA, gb, gc = _loss_and_grads(
                A, b, c, X, y, 0.0, config.decay_potential
            )
            if initial_loss is None:
                initial_loss = max(loss, 1e-12)
            _check_divergence(loss, initial_loss, step)
            gnorm = float(
                np.sqrt(np.sum(gA**2) + np.sum(gb**2) + np.sum(gc**2))
            )
            _record(trace_rows, step, ParticleNetwork(A, b, c), dataset,
                    loss, reg, gnorm)
        if step == config.steps:
            break

        i, ytil = next(draws)
        x = rows[i]
        np.matmul(A, x, out=pre)
        pre += b
        np.maximum(0.0, pre, out=act)
        e = float(act @ c) / m - ytil
        # gradient of (f - y~)^2, no 1/2 factor; relu'(0) = 0
        s = eps * (2.0 * e / m)
        np.greater(pre, 0.0, out=active)
        np.multiply(active, c, out=t)
        t *= s
        np.multiply(t[:, None], x, out=tA)
        A -= tA
        b -= t
        np.multiply(act, s, out=t)
        c -= t
    return ParticleNetwork(A, b, c), _finish_trace(trace_rows, config)


def balancedness(net: ParticleNetwork, atom_eps: float = 0.0) -> float:
    """Worst relative gap between ||(a_j, b_j)|| and |c_j| over heavy neurons.

    Gradient flow on the squared-norm penalty equalizes the two factors;
    this measures how far a trained network is from that manifold.
    """
    norms = np.sqrt(np.sum(net.A**2, axis=1) + net.b**2)
    absc = np.abs(net.c)
    mass = norms * absc / net.m
    heavy = mass > atom_eps
    if not np.any(heavy):
        return 0.0
    scale = np.maximum(np.maximum(norms[heavy], absc[heavy]), 1e-300)
    return float(np.max(np.abs(norms[heavy] - absc[heavy]) / scale))
