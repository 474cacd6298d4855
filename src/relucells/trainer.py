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
exactly on a hinge stay frozen; the Lambda/grad_phi_sq indicator does the
same, up to a roundoff band of 1e-9 ||(a, b)|| (see second_moments).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .analysis import support_count
from .errors import ConvergenceError, PreconditionError
from .model import Dataset, Neuron, ParticleNetwork
from .potentials import second_moments

DIVERGENCE_FACTOR = 1e6

# Label-noise SGD steps whose sample indices and noise are drawn in one
# generator call; bounds memory for any record_stride, and any block size
# gives the same stream.
DRAW_BLOCK = 65_536
# A trace reaches interpolation at the first of INTERP_PATIENCE consecutive
# records whose loss is below INTERP_TOL.
INTERP_TOL = 1e-4
INTERP_PATIENCE = 100


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
        if self.record_stride < 1:
            raise PreconditionError("record_stride >= 1")


@dataclass
class TrainTrace:
    steps: np.ndarray
    loss: np.ndarray  # noise-free train loss (1/n) sum 1/2 (f - y)^2
    lam_value: np.ndarray  # implicit regulariser Lambda
    reg_value: np.ndarray  # explicit decay term (lam/m) sum V; 0 for label noise
    support: np.ndarray  # ray count of the current network
    grad_norm: np.ndarray  # full-batch objective gradient norm
    interpolation_step: int | None = field(default=None)
    record_seconds: float = 0.0  # time spent writing the trace rows

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
        = c^2 (1 + |x|^2) 1[a.x + b > 0] + relu(a.x + b)^2,

    with relu'(0) = 0 (see second_moments).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    R, S = second_moments(x, neuron.a[None, :], neuron.b)
    return float(neuron.c**2 * S[0, 0] + R[0, 0])


def implicit_lambda(net: ParticleNetwork, dataset: Dataset) -> float:
    """(1/m) sum_j E_D[grad_phi_sq(theta_j, x)], in one (n, m) pass."""
    R, S = second_moments(dataset.points, net.A, net.b)
    return float(np.mean(net.c**2 * S + R))


def network_to_json(net: ParticleNetwork) -> str:
    return json.dumps(
        {"A": net.A.tolist(), "b": net.b.tolist(), "c": net.c.tolist()},
        indent=2,
    )


def network_from_json(text: str) -> ParticleNetwork:
    obj = json.loads(text)
    return ParticleNetwork(np.array(obj["A"]), np.array(obj["b"]),
                           np.array(obj["c"]))


class _Workspace:
    """Preallocated arrays of _loss_and_grads for n points and a width-m
    network in dimension d; the (2, m) arrays hold the rows b and c."""

    def __init__(self, n: int, m: int, d: int):
        self.pre, self.act, self.rmask = (np.empty((n, m)) for _ in range(3))
        self.mask, self.resid = np.empty((n, m), dtype=bool), np.empty(n)
        self.gA, self.tA = np.empty((m, d)), np.empty((m, d))
        self.gbc, self.tbc = np.empty((2, m)), np.empty((2, m))
        self.gb, self.gc = self.gbc


def _decay_value_grads(A, bc, kind: str, ws: _Workspace) -> float:
    """Explicit penalty sum_j V(theta_j); its gradients go to ws.tA, ws.tbc."""
    if kind == "norm-squared":
        sum_a = np.add.reduce(np.square(A, out=ws.tA), axis=None)
        sum_b, sum_c = np.add.reduce(np.square(bc, out=ws.tbc), axis=1)
        np.multiply(A, 2.0, out=ws.tA)
        np.multiply(bc, 2.0, out=ws.tbc)
        return float(sum_a + sum_b + sum_c)
    # path norm |c| * ||(a, b)||; subgradient 0 at either zero factor
    norms = np.sqrt(np.add.reduce(np.square(A), axis=1) + np.square(bc[0]))
    absc = np.abs(bc[1])
    ratio = absc / np.where(norms > 0, norms, 1.0)
    np.multiply(ratio[:, None], A, out=ws.tA)
    np.multiply(ratio, bc[0], out=ws.tbc[0])
    np.multiply(np.sign(bc[1]), norms, out=ws.tbc[1])
    return float(np.add.reduce(absc * norms))


def _loss_and_grads(A, bc, X, y, decay: float, decay_potential: str, ws):
    """(data loss, decay term) of the full-batch objective; its gradients
    are written to ws.gA and ws.gbc (rows gb, gc)."""
    n, m = X.shape[0], A.shape[0]
    b, c = bc
    pre, act, rmask, resid, gA, gbc = (ws.pre, ws.act, ws.rmask, ws.resid,
                                       ws.gA, ws.gbc)
    np.matmul(X, A.T, out=pre)
    pre += b
    np.maximum(0.0, pre, out=act)
    np.matmul(act, c, out=resid)
    resid /= m
    resid -= y
    loss = 0.5 * float(resid @ resid) / n

    # relu'(0) = 0: the hinge contributes nothing
    np.greater(pre, 0.0, out=ws.mask)
    np.multiply(ws.mask, resid[:, None], out=rmask)
    np.matmul(rmask.T, X, out=gA)
    gA *= c[:, None]
    gA /= n * m
    np.add.reduce(rmask, axis=0, out=ws.gb)
    ws.gb *= c
    np.matmul(act.T, resid, out=ws.gc)
    gbc /= n * m

    reg = 0.0
    if decay > 0.0:
        scale = decay / m
        reg = scale * _decay_value_grads(A, bc, decay_potential, ws)
        ws.tA *= scale
        gA += ws.tA
        ws.tbc *= scale
        gbc += ws.tbc
    return loss, reg


def objective_and_grads(
    net: ParticleNetwork, dataset: Dataset, config: TrainConfig
):
    """Full-batch objective value and gradients (data term + decay term).

    Returns (objective, data loss, decay term, grad_A, grad_b, grad_c); the
    gradient arrays are new and belong to the caller.
    """
    ws = _Workspace(dataset.n, net.m, net.d)
    loss, reg = _loss_and_grads(
        net.A, np.stack([net.b, net.c]), dataset.points, dataset.targets,
        config.decay, config.decay_potential, ws,
    )
    return loss + reg, loss, reg, ws.gA, ws.gb, ws.gc


def _init_params(config: TrainConfig, d: int, rng):
    """Initial A and the rows (b, c) of one (2, m) array."""
    m = config.width
    s = config.init_scale
    A = rng.normal(0.0, s / np.sqrt(d + 1), size=(m, d))
    b = rng.normal(0.0, s / np.sqrt(d + 1), size=m)
    c = s * rng.choice([-1.0, 1.0], size=m)
    return A, np.stack([b, c])


def _streams(seed: int):
    """Independent generators for init, data sampling and label noise."""
    init_ss, sample_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.Generator(np.random.Philox(init_ss)),
        np.random.Generator(np.random.Philox(sample_ss)),
        np.random.Generator(np.random.Philox(noise_ss)),
    )


def _record(trace_rows, step, net, dataset, loss, reg, grads):
    """Append one trace row, ending in the seconds it took; grads are the
    objective gradients (gA, gb, gc)."""
    t0 = time.perf_counter()
    gnorm = float(np.sqrt(sum(np.sum(g**2) for g in grads)))
    lam_val = implicit_lambda(net, dataset)
    supp = support_count(net)
    trace_rows.append((step, loss, lam_val, reg, supp, gnorm,
                       time.perf_counter() - t0))


def _finish_trace(trace_rows) -> TrainTrace:
    arr = np.array(trace_rows, dtype=float)
    trace = TrainTrace(
        arr[:, 0].astype(int), arr[:, 1], arr[:, 2], arr[:, 3],
        arr[:, 4].astype(int), arr[:, 5],
        record_seconds=float(np.sum(arr[:, 6])),
    )
    below = trace.loss < INTERP_TOL
    run = 0
    for i, flag in enumerate(below):
        run = run + 1 if flag else 0
        if run >= INTERP_PATIENCE:
            trace.interpolation_step = int(trace.steps[i - run + 1])
            break
    return trace


def _check_divergence(loss, initial_loss, step):
    if not math.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
        raise ConvergenceError(
            f"training diverged at step {step}: loss {loss:.3e} "
            f"(initial {initial_loss:.3e})"
        )


def gd_weight_decay(
    dataset: Dataset, config: TrainConfig
) -> tuple[ParticleNetwork, TrainTrace]:
    """Full-batch gradient descent on the penalized interpolation objective."""
    rng_init, _, _ = _streams(config.seed)
    A, bc = _init_params(config, dataset.d, rng_init)  # updated in place
    eps = config.step_size
    X, y = dataset.points, dataset.targets
    ws = _Workspace(dataset.n, config.width, dataset.d)

    trace_rows: list = []
    initial_loss = None
    for step in range(config.steps + 1):
        loss, reg = _loss_and_grads(A, bc, X, y, config.decay,
                                    config.decay_potential, ws)
        obj = loss + reg
        if initial_loss is None:
            initial_loss = max(obj, 1e-12)
        _check_divergence(obj, initial_loss, step)
        if step % config.record_stride == 0 or step == config.steps:
            _record(trace_rows, step, ParticleNetwork(A, *bc), dataset,
                    loss, reg, (ws.gA, ws.gb, ws.gc))
        if step == config.steps:
            break
        ws.gA *= eps
        A -= ws.gA
        ws.gbc *= eps
        bc -= ws.gbc
    return ParticleNetwork(A, *bc), _finish_trace(trace_rows)


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
    A, bc = _init_params(config, dataset.d, rng_init)
    b, c = bc
    eps, m, stride = config.step_size, config.width, config.record_stride
    X, y = dataset.points, dataset.targets
    rows = list(X)
    draws = _perturbed_labels(dataset, config, rng_sample, rng_noise)
    ws = _Workspace(dataset.n, m, dataset.d)
    # per-step buffers; A and bc are updated in place, and the rows
    # (active * c, act) of ta take one scaling and one subtraction from bc
    pre, ta, tA = np.empty(m), np.empty((2, m)), np.empty_like(A)
    t, act = ta
    t_col = t[:, None]
    active = np.empty(m, dtype=bool)
    dot, maximum, greater, multiply = np.dot, np.maximum, np.greater, np.multiply

    trace_rows: list = []
    initial_loss = None
    for step in chain(range(0, config.steps, stride), [config.steps]):
        # decay stripped so recorded gradients are pure data gradients
        loss, reg = _loss_and_grads(A, bc, X, y, 0.0, config.decay_potential, ws)
        if initial_loss is None:
            initial_loss = max(loss, 1e-12)
        _check_divergence(loss, initial_loss, step)
        _record(trace_rows, step, ParticleNetwork(A, b, c), dataset, loss,
                reg, (ws.gA, ws.gb, ws.gc))
        # the stride steps up to the next record; none after the last
        for i, ytil in islice(draws, stride):
            x = rows[i]
            dot(A, x, out=pre)
            pre += b
            maximum(0.0, pre, out=act)
            e = float(dot(act, c)) / m - ytil
            # gradient of (f - y~)^2, no 1/2 factor; relu'(0) = 0
            greater(pre, 0.0, out=active)
            multiply(active, c, out=t)
            ta *= eps * (2.0 * e / m)
            multiply(t_col, x, out=tA)
            A -= tA
            bc -= ta
    return ParticleNetwork(A, b, c), _finish_trace(trace_rows)


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
