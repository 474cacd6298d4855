"""The shared property checks of `relucells.verify` can fail.

Acceptance criteria 01, 02, 03, 09 and 10 are these checks at full scale,
so each must turn to a failure under one targeted fault in the code it
checks. Every fault is patched into the `verify` module's namespace and
the check runs at quick scale, first clean and then faulted, on one seed.
"""

import dataclasses

import numpy as np
import pytest

from relucells import verify
from relucells.potentials import Variant


def _count_off_by_one(monkeypatch):
    real = verify.expected_cell_count
    monkeypatch.setattr(verify, "expected_cell_count",
                        lambda n, d: real(n, d) + 1)


def _witness_out_of_cell(monkeypatch):
    real = verify.enumerate_cells

    def enumerate_cells(ds):
        dec = real(ds)
        cell = dec.cells[0]
        moved = dataclasses.replace(cell, witness=-cell.witness)
        return dataclasses.replace(dec, cells=(moved,) + dec.cells[1:])

    monkeypatch.setattr(verify, "enumerate_cells", enumerate_cells)


def _squared_relu(monkeypatch):
    monkeypatch.setattr(verify, "relu", lambda t: np.maximum(t, 0.0) ** 2)


def _non_convex_label_noise(monkeypatch):
    real = verify.weight

    def weight(kind, theta):
        w = real(kind, theta)
        return np.sqrt(w) if kind.variant is Variant.LABEL_NOISE_PAPER else w

    monkeypatch.setattr(verify, "weight", weight)


def _one_gradient_sign_flipped(monkeypatch):
    real = verify.objective_and_grads

    def objective_and_grads(net, ds, cfg):
        *head, gc = real(net, ds, cfg)
        gc = gc.copy()
        gc[0] = -gc[0]
        return (*head, gc)

    monkeypatch.setattr(verify, "objective_and_grads", objective_and_grads)


def _merge_drops_bias_moment(monkeypatch):
    real = verify.merge_cell_mass

    def merge_cell_mass(mu, dec):
        merged = real(mu, dec)
        return dataclasses.replace(merged, b=np.zeros_like(merged.b))

    monkeypatch.setattr(verify, "merge_cell_mass", merge_cell_mass)


FAULTS = [
    ("cell_count", _count_off_by_one),
    ("cell_count", _witness_out_of_cell),
    ("relu_additivity", _squared_relu),
    ("midpoint_convexity", _non_convex_label_noise),
    ("gradient_fd", _one_gradient_sign_flipped),
    ("structure_preserving", _merge_drops_bias_moment),
]


@pytest.mark.parametrize(
    "name, fault", FAULTS, ids=[f.__name__.strip("_") for _, f in FAULTS]
)
def test_shared_check_fails_under_a_fault(monkeypatch, name, fault):
    check = dict(verify.CHECKS)[name]
    ok, detail = check(np.random.default_rng(0), True)
    assert ok, detail
    fault(monkeypatch)
    ok, detail = check(np.random.default_rng(0), True)
    assert not ok


@pytest.mark.parametrize("seed", [9, 13, 16])
def test_solver_lp_roundtrip_certifies_the_former_tail_seeds(monkeypatch, seed):
    # Douglas-Rachford alone ran one quick-scale solve of each of these
    # seeds to max_iters (300 000) unconverged; the finish certifies them
    # at 102 400, 25 600 and 102 400 iterations. Quick seed 11 still ends
    # at max_iters.
    reasons = []
    real = verify.solve

    def solve(program):
        sol = real(program)
        reasons.append(sol.diagnostics["stop_reason"])
        return sol

    monkeypatch.setattr(verify, "solve", solve)
    names = [name for name, _ in verify.CHECKS]
    ss = np.random.SeedSequence(seed).spawn(len(names))[names.index("solver_lp_roundtrip")]
    ok, detail = verify.check_solver_lp(np.random.Generator(np.random.Philox(ss)), True)
    assert ok, detail
    assert reasons == ["certified"] * 4
