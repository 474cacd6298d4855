"""Spans around the calls into each layer of relucells, and the layer metrics.

Tracing wraps, at module level, the names that each caller looks up at call
time (for example `relucells.arrangement.max_margin`, which
`enumerate_cells` calls, or `relucells.cli.gd_weight_decay`, which the
`train` command calls). A span is (name, start, end, parent, attributes);
spans stay in memory and are written out when the run ends. The program's
own source is not changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute looked up by the caller, span name)
PATCHES = [
    ("arrangement", "max_margin", "simplex.max_margin"),
    ("arrangement", "is_generic", "arrangement.is_generic"),
    ("arrangement", "enumerate_cells", "arrangement.enumerate_cells"),
    ("cli", "enumerate_cells", "arrangement.enumerate_cells"),
    ("analysis", "locate_cell", "arrangement.locate_cell"),
    ("solver", "cell_gauge", "potentials.cell_gauge"),
    ("solver", "build_program", "solver.build_program"),
    ("cli", "build_program", "solver.build_program"),
    ("solver", "solve", "solver.solve"),
    ("cli", "solve", "solver.solve"),
    ("solver", "project_cones", "solver.project_cones"),
    ("solver", "extract_radon", "solver.extract_radon"),
    ("cli", "extract_radon", "solver.extract_radon"),
    ("solver", "lp_l1", "solver.lp_l1"),
    ("cli", "lp_l1", "solver.lp_l1"),
    ("solver", "optimality_certificate", "solver.certificate"),
    ("cli", "optimality_certificate", "solver.certificate"),
    ("cli", "gd_weight_decay", "trainer.gd"),
    ("cli", "sgd_label_noise", "trainer.sgd"),
    ("trainer", "support_count", "analysis.support_count"),
    ("trainer", "implicit_lambda", "trainer.implicit_lambda"),
    ("analysis", "merge_identical_rays", "model.merge_identical_rays"),
    ("analysis", "effective_support", "analysis.effective_support"),
    ("cli", "effective_support", "analysis.effective_support"),
    ("analysis", "compare_supports", "analysis.compare_supports"),
    ("cli", "compare_supports", "analysis.compare_supports"),
    ("cli", "main", "cli.main"),
]


def _attributes(name, args, kwargs, out) -> dict:
    """Work counts a span carries, read from the call's arguments and result."""
    if name == "arrangement.enumerate_cells":
        return {"cells": out.size}
    if name == "solver.solve":
        program = args[0] if args else kwargs["program"]
        return {"iterations": out.iterations, "potential": program.kind.variant.value}
    if name in ("trainer.gd", "trainer.sgd"):
        config = args[1] if len(args) > 1 else kwargs["config"]
        return {"steps": config.steps}
    if name == "cli.main":
        argv = args[0] if args else kwargs["argv"]
        return {"command": argv[0], "algo": argv[argv.index("--algo") + 1]
                if "--algo" in argv else None}
    return {}


class Tracer:
    """Records spans while installed; restores every wrapped name on removal."""

    def __init__(self):
        self.rounds: list = []  # one span list per install
        self.spans: list = []  # [name, start, end, parent index, attributes]
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, {}])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            spans[idx][4] = _attributes(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every name in PATCHES; spans go to a fresh list per install."""
        self.spans = []
        self.rounds.append(self.spans)
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(f"relucells.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                  "round": r, **s[4]}
                 for r, spans in enumerate(self.rounds) for s in spans],
                fh,
            )


def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans: list) -> dict:
    """Per-layer totals of one traced round of work; every metric is present."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)  # time covered by direct children, per span
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        total[name] += dur
        calls[name] += 1
        total[name + ".self"] += dur - child[i]

    iters = defaultdict(int)
    iter_s = defaultdict(float)
    cells = 0
    steps = {"trainer.gd": 0, "trainer.sgd": 0}
    cli_steps = {"gd": [0, 0.0], "label-noise": [0, 0.0]}
    records = 0
    cones_calls, cones_s = 0, 0.0
    for i, s in enumerate(spans):
        name, dur, attrs = s[0], s[2] - s[1], s[4]
        if name == "solver.solve":
            iters[attrs["potential"]] += attrs["iterations"]
            iter_s[attrs["potential"]] += dur
        elif name == "arrangement.enumerate_cells":
            cells += attrs["cells"]
        elif name in steps:
            steps[name] += attrs["steps"]
        elif name == "analysis.support_count" and s[3] >= 0 and spans[s[3]][0] in steps:
            records += 1
        elif name == "solver.project_cones" and "solver.solve" in _ancestors(spans, i):
            cones_calls += 1
            cones_s += dur
        elif name == "cli.main" and attrs["command"] == "train":
            train = next(c for c in spans[i + 1:] if c[0] in steps)
            cli_steps[attrs["algo"] or "gd"][0] += train[4]["steps"]
            cli_steps[attrs["algo"] or "gd"][1] += dur

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "arrangement.enumerate_cells_calls": calls["arrangement.enumerate_cells"],
        "arrangement.enumerate_cells_s": total["arrangement.enumerate_cells"],
        "arrangement.is_generic_s": total["arrangement.is_generic"],
        "arrangement.cells": cells,
        "arrangement.cells_per_s": per(cells, total["arrangement.enumerate_cells"]),
        "simplex.max_margin_calls": calls["simplex.max_margin"],
        "simplex.max_margin_s": total["simplex.max_margin"],
        "arrangement.locate_cell_calls": calls["arrangement.locate_cell"],
        "arrangement.locate_cell_s": total["arrangement.locate_cell"],
        "potentials.cell_gauge_s": total["potentials.cell_gauge"],
        "solver.build_program_s": total["solver.build_program"],
        "solver.solve_s": total["solver.solve"],
        "solver.iterations.tv": iters["tv"],
        "solver.iterations.label-noise": iters["label-noise"],
        "solver.us_per_iteration.tv": per(iter_s["tv"], iters["tv"], 1e6),
        "solver.us_per_iteration.label-noise":
            per(iter_s["label-noise"], iters["label-noise"], 1e6),
        "solver.project_cones_calls": cones_calls,
        "solver.project_cones_s": cones_s,
        "solver.extract_radon_s": total["solver.extract_radon"],
        "solver.lp_l1_s": total["solver.lp_l1"],
        "solver.certificate_s": total["solver.certificate"],
        "trainer.gd_s": total["trainer.gd.self"],
        "trainer.gd_us_per_step": per(total["trainer.gd.self"], steps["trainer.gd"], 1e6),
        "trainer.sgd_s": total["trainer.sgd.self"],
        "trainer.sgd_us_per_step":
            per(total["trainer.sgd.self"], steps["trainer.sgd"], 1e6),
        "trainer.records": records,
        "trainer.implicit_lambda_s": total["trainer.implicit_lambda"],
        "analysis.support_count_calls": calls["analysis.support_count"],
        "analysis.support_count_s": total["analysis.support_count"],
        "model.merge_identical_rays_s": total["model.merge_identical_rays"],
        "analysis.effective_support_s": total["analysis.effective_support"],
        "analysis.compare_supports_s": total["analysis.compare_supports"],
        "cli.self_s": total["cli.main.self"],
        "cli.gd_steps_per_s": per(*cli_steps["gd"]),
        "cli.sgd_steps_per_s": per(*cli_steps["label-noise"]),
    }
