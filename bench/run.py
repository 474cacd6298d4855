"""Run one relucells benchmark workload and print its metrics.

    python3 bench/run.py --workload cells --seed 1 --seconds 25 --trace 0

Run from the repository root: the package is imported from ./src. The run
makes its inputs from --seed, repeats whole rounds of the workload's
operations until the next round would end after --seconds, checks every
output, and prints one JSON object as the last line of standard output:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Scratch files go to ./.bench_out/. See bench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402


def _process_age() -> float:
    """Seconds since this process started, read from /proc (0 where absent)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = float(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE_AT_START = _process_age()

# One BLAS thread, set before numpy loads: the program's matrices are at most
# a few hundred wide, and a second BLAS thread would compete with the
# measured thread for the machine's two vCPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

END_TO_END = {"setup_s": "s", "wall_ref_s": "ref_s", "op_median_ref_s": "ref_s",
              "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if "us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cells", "solve-line", "solve-plane", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "relucells" / "__init__.py").is_file():
        print("bench: run from the repository root; src/relucells is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from probe import REFERENCE_S
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    out = root / ".bench_out"
    workdir = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = _AGE_AT_START + time.perf_counter() - _START

        tracer = Tracer() if args.trace else None
        samples = defaultdict(list)  # operation name -> untraced ops
        layers, overhead = [], []
        failures, problems = Counter(), []
        attempted = rounds = 0
        t_loop = time.perf_counter()
        while True:
            passes = [None]
            if tracer:  # the same round untraced, then traced
                passes = [None, tracer]
            for tr in passes:
                if tr:
                    tr.install()
                try:
                    ops = workload.run_round()
                finally:
                    if tr:
                        tr.remove()
                attempted += len(ops)
                failures.update(op.failure for op in ops if op.failure)
                problems.extend(p for op in ops for p in op.problems)
                round_s = sum(op.seconds for op in ops)
                if tr:
                    layers.append(layer_metrics(tr.spans))
                    overhead.append(round_s - untraced_s)
                else:
                    untraced_s = round_s
                    for op in ops:
                        samples[op.name].append(op)
                if rounds == 0:  # peak memory of one round, whatever the count
                    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rounds += 1
            elapsed = time.perf_counter() - t_loop
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break

        # each operation's median over its samples in the run, in seconds
        # and in reference seconds (its time over the probe's around it)
        raw = [statistics.median(op.seconds for op in ops) for ops in samples.values()]
        ref = [statistics.median(op.seconds / op.probe_s for op in ops) * REFERENCE_S
               for ops in samples.values()]
        if tracer:
            tracer.write(out / f"trace-{args.workload}-{args.seed}.json")
            metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
            metrics["bench.tracing_overhead_s"] = statistics.median(overhead)
            metrics["bench.wall_s"] = sum(raw)
            metrics["bench.probe_s"] = statistics.median(
                op.probe_s for ops in samples.values() for op in ops)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        else:
            values = {
                "setup_s": setup_s,
                "wall_ref_s": sum(ref),
                "op_median_ref_s": statistics.median(ref),
                "peak_rss_mb": peak_kib / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{attempted} operations, failed {dict(failures)}", file=sys.stderr)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": sum(failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
