"""Command line entry point.

Subcommands: cells, solve, train, analyze, compare, verify. Every command
is a pure function of its options and input files; train and verify also
take a --seed. Options may come from a JSON config file (--config) with
individual flags taking precedence.
Exit codes: 0 ok, 1 invalid input, 2 infeasible, 3 non-convergence,
4 property failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    TAU_ANGLE_SOLVER,
    TAU_ANGLE_TRAINED,
    compare_supports,
    effective_support,
    groups_to_csv,
    sparsity_report,
)
from .arrangement import (
    decomposition_to_json,
    enumerate_cells,
    expected_cell_count,
)
from .errors import (
    ConvergenceError,
    InfeasibleError,
    PreconditionError,
    ReluCellsError,
)
from .model import RadonMeasure, load_dataset_csv
from .potentials import PotentialKind
from .solver import (
    LPInstance,
    build_program,
    extract_radon,
    lp_l1,
    optimality_certificate,
    solve,
)
from .trainer import (
    TrainConfig,
    gd_weight_decay,
    network_from_json,
    network_to_json,
    sgd_label_noise,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PROPERTY_FAILURE = 4


def _config_hash(payload: dict, ds) -> str:
    """Hash of a run's settings and of its dataset's points and targets."""
    h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    h.update(json.dumps(ds.points.shape).encode())
    h.update(ds.points.tobytes())
    h.update(ds.targets.tobytes())
    return h.hexdigest()[:16]


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _merge_config(args, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Apply file values for options the command line left at default."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        file_cfg = json.load(fh)
    defaults = {a.dest: a.default for a in parser._actions}
    for key, value in file_cfg.items():
        key = key.replace("-", "_")
        if not hasattr(args, key):
            continue
        if getattr(args, key) == defaults.get(key):
            setattr(args, key, value)
    return args


def _load_support(path: str, dataset, decomp, tau_angle=None):
    """Build an EffectiveSupport from a network JSON or a Radon CSV."""
    p = Path(path)
    if p.suffix == ".json":
        net = network_from_json(p.read_text())
        tau = TAU_ANGLE_TRAINED if tau_angle is None else tau_angle
        return effective_support(net, decomp, tau_angle=tau)
    # solve writes a header-only file for a 0-atom measure
    header, *rows = p.read_text().splitlines()
    arr = (np.loadtxt(rows, delimiter=",", ndmin=2) if rows
           else np.zeros((0, header.count(",") + 1)))
    nu = RadonMeasure(arr[:, :-1], arr[:, -1])
    tau = TAU_ANGLE_SOLVER if tau_angle is None else tau_angle
    return effective_support(nu, decomp, tau_angle=tau)


def _radon_to_csv(nu: RadonMeasure, path: Path) -> None:
    k = nu.directions.shape[1]
    header = ",".join([f"dir{i}" for i in range(k)] + ["mass"])
    data = (
        np.hstack([nu.directions, nu.masses[:, None]])
        if nu.k
        else np.zeros((0, k + 1))
    )
    np.savetxt(path, data, delimiter=",", header=header, comments="")


def cmd_cells(args) -> int:
    ds = load_dataset_csv(args.dataset)
    t0 = time.perf_counter()
    dec = enumerate_cells(ds)
    summary = {
        "version": __version__,
        "n": ds.n,
        "d": ds.d,
        "cells": dec.size,
        "formula": expected_cell_count(ds.n, ds.d),
        "formula_match": dec.size == expected_cell_count(ds.n, ds.d),
        "generic": dec.generic,
        "margin_lps": dec.margin_lps,
        "margin_pivots": dec.margin_pivots,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    out = _outdir(args)
    (out / "cells.json").write_text(decomposition_to_json(dec))
    (out / "cells_summary.json").write_text(json.dumps(summary, indent=2))
    print(f"cells: {summary['cells']} (formula {summary['formula']}, "
          f"generic={summary['generic']})")
    return EXIT_OK


def cmd_solve(args) -> int:
    ds = load_dataset_csv(args.dataset)
    kind = PotentialKind.from_flag(args.potential, ds)
    dec = enumerate_cells(ds)
    lam = args.lam if args.mode == "penalized" else 0.0
    prog = build_program(ds, dec, kind, mode=args.mode, lam=lam)
    t0 = time.perf_counter()
    sol = solve(prog)
    elapsed = time.perf_counter() - t0
    nu = extract_radon(prog, sol)
    cert = optimality_certificate(prog, sol)
    out = _outdir(args)
    (out / "solution.json").write_text(sol.to_json())
    _radon_to_csv(nu, out / "radon.csv")
    report = {
        "version": __version__,
        "config_hash": _config_hash(
            {"potential": args.potential, "mode": args.mode, "lambda": lam}, ds,
        ),
        "objective": sol.objective,
        "primal_residual": sol.primal_residual,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "stop_reason": sol.diagnostics["stop_reason"],
        "finish_attempts": sol.diagnostics["finish_attempts"],
        "atoms": nu.k,
        "alignment_residual": cert["alignment_residual"],
        "inactive_dual_bound": cert["inactive_dual_bound"],
        "seconds": round(elapsed, 3),
    }
    if args.lp_from_solution and nu.k:
        inst = LPInstance.from_directions(ds, nu.directions, kind)
        z, support, obj = lp_l1(inst)
        report["lp_objective"] = obj
        report["lp_support"] = int(len(support))
        report["lp_support_ok"] = bool(len(support) <= ds.n)
    (out / "solve_report.json").write_text(json.dumps(report, indent=2))
    print(f"objective {sol.objective:.9g}  atoms {nu.k}  "
          f"iterations {sol.iterations}  converged {sol.converged}  "
          f"stop {sol.diagnostics['stop_reason']}")
    if not sol.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_train(args) -> int:
    ds = load_dataset_csv(args.dataset)
    cfg = TrainConfig(
        width=args.width,
        steps=args.steps,
        step_size=args.step_size,
        decay=args.lam,
        decay_potential=args.decay_potential,
        noise=args.eta,
        noise_dist=args.noise_dist,
        seed=args.seed,
        init_scale=args.init_scale,
        record_stride=args.record_stride,
    )
    runner = sgd_label_noise if args.algo == "label-noise" else gd_weight_decay
    t0 = time.perf_counter()
    net, trace = runner(ds, cfg)
    elapsed = time.perf_counter() - t0
    out = _outdir(args)
    trace.to_csv(out / "trace.csv")
    (out / "network.json").write_text(network_to_json(net))
    report = {
        "version": __version__,
        "config_hash": _config_hash(vars(cfg).copy(), ds),
        "algo": args.algo,
        "final_loss": float(trace.loss[-1]),
        "final_lambda": float(trace.lam_value[-1]),
        "final_support": int(trace.support[-1]),
        "interpolation_step": trace.interpolation_step,
        "seconds": round(elapsed, 3),
        "record_seconds": round(trace.record_seconds, 3),
    }
    (out / "train_report.json").write_text(json.dumps(report, indent=2))
    print(f"final loss {report['final_loss']:.3e}  "
          f"lambda {report['final_lambda']:.6g}  "
          f"support {report['final_support']}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    ds = load_dataset_csv(args.dataset)
    dec = enumerate_cells(ds)
    support = _load_support(args.input, ds, dec, args.tau_angle)
    reference = None
    if args.reference:
        reference = _load_support(args.reference, ds, dec)
    report = sparsity_report(support, ds.n, reference)
    out = _outdir(args)
    (out / "sparsity.json").write_text(report.to_json())
    groups_to_csv(support, out / "groups.csv")
    print(f"support {report.support_count}  violations {report.violations}  "
          f"representer_ok {report.representer_ok}")
    if report.violations:
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def cmd_compare(args) -> int:
    ds = load_dataset_csv(args.dataset)
    dec = enumerate_cells(ds)
    s1 = _load_support(args.input_a, ds, dec, args.tau_angle)
    s2 = _load_support(args.input_b, ds, dec, args.tau_angle)
    cmp = compare_supports(s1, s2)
    out = _outdir(args)
    (out / "comparison.json").write_text(json.dumps(cmp, indent=2))
    print(f"max delta {cmp['max_delta']:.3e} rad  "
          f"unmatched {len(cmp['unmatched_cells_1']) + len(cmp['unmatched_cells_2'])}")
    if args.max_delta is not None and (
        cmp["max_delta"] > args.max_delta
        or cmp["unmatched_cells_1"]
        or cmp["unmatched_cells_2"]
    ):
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(
        seed=args.seed, quick=args.quick, inject_failure=args.inject_failure
    )
    for r in report["checks"]:
        tag = "PASS" if r["passed"] else "FAIL"
        print(f"{tag} {r['name']:24s} {r['seconds']:8.2f}s  {r['detail']}")
    if args.out:
        out = _outdir(args)
        (out / "verify.json").write_text(json.dumps(report, indent=2))
    return EXIT_OK if report["passed"] else EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relucells",
        description="Cell arrangements, convex solvers and particle "
        "training for shallow ReLU networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("dataset", help="dataset CSV (x1,...,xd,y)")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("cells", help="enumerate the cell decomposition")
    common(p)
    p.set_defaults(fn=cmd_cells, parser=p)

    p = sub.add_parser("solve", help="solve the finite convex program")
    common(p)
    p.add_argument("--potential", default="tv",
                   choices=["tv", "label-noise", "label-noise-exact"])
    p.add_argument("--mode", default="constrained",
                   choices=["constrained", "penalized"])
    p.add_argument("--lambda", dest="lam", type=float, default=1e-3,
                   help="penalty strength (penalized mode)")
    p.add_argument("--lp-from-solution", action="store_true",
                   help="re-solve the l1 program on extracted directions")
    p.set_defaults(fn=cmd_solve, parser=p)

    p = sub.add_parser("train", help="run particle training")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algo", default="gd", choices=["gd", "label-noise"])
    p.add_argument("--width", type=int, default=50)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--step-size", type=float, default=1e-2)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="explicit decay strength (gd)")
    p.add_argument("--decay-potential", default="norm-squared",
                   choices=["norm-squared", "path-norm"])
    p.add_argument("--eta", type=float, default=0.0, help="label noise size")
    p.add_argument("--noise-dist", default="rademacher",
                   choices=["rademacher", "gaussian"])
    p.add_argument("--init-scale", type=float, default=1.0)
    p.add_argument("--record-stride", type=int, default=10)
    p.set_defaults(fn=cmd_train, parser=p)

    p = sub.add_parser("analyze", help="sparsity report for an artifact")
    common(p)
    p.add_argument("input", help="network JSON or Radon CSV")
    p.add_argument("--reference", help="second artifact to compare against")
    p.add_argument("--tau-angle", type=float, default=None)
    p.set_defaults(fn=cmd_analyze, parser=p)

    p = sub.add_parser("compare", help="compare two supports")
    common(p)
    p.add_argument("input_a", help="network JSON or Radon CSV")
    p.add_argument("input_b", help="network JSON or Radon CSV")
    p.add_argument("--tau-angle", type=float, default=None)
    p.add_argument("--max-delta", type=float, default=None,
                   help="fail (exit 4) above this angular delta")
    p.set_defaults(fn=cmd_compare, parser=p)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", default=None, help="optional output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="reduced scale")
    p.add_argument("--inject-failure", action="store_true",
                   help="negative control: must exit nonzero")
    p.set_defaults(fn=cmd_verify, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, args.parser)
        if getattr(args, "seed", 0) < 0:
            raise PreconditionError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ReluCellsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
