"""Sparsity structure of measures, networks and solver outputs.

The sparsity unit is a ray: a direction on the lifted sphere carrying
signed Radon mass. Atoms are grouped into rays per cell by single-linkage
angular clustering (model.ray_labels), which yields the effective support
count, the one-ray-per-cell check, and cross-representation comparisons. The
moment-preserving merge collapses all same-cell same-sign atoms into one
without changing predictions at the datapoints.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .arrangement import CellDecomposition, locate_cell
from .errors import PreconditionError, ZeroDirectionError
from .model import (
    AtomicMeasure,
    ParticleNetwork,
    RadonMeasure,
    angle,
    merge_identical_rays,
    ray_labels,
    sphere_atoms,
)

# clustering tolerances: trained networks carry optimization noise,
# solver outputs are tight
TAU_ANGLE_TRAINED = 5e-2
TAU_ANGLE_SOLVER = 1e-6
TAU_MASS_REL = 1e-4


def cluster_directions(dirs: np.ndarray, tau_angle: float) -> list[list[int]]:
    """Single-linkage groups of unit vectors at angle < tau_angle, each
    ascending, ordered by their smallest index."""
    labels = ray_labels(dirs, tau_angle)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [g.tolist() for g in np.split(order, cuts)] if labels.size else []


@dataclass(frozen=True)
class SupportGroup:
    """One mass-carrying ray: a cluster of atoms in a single cell."""

    cell_index: int
    direction: np.ndarray  # unit (d+1)-vector, mass-weighted representative
    mass: float  # total signed Radon mass
    members: tuple  # original atom/neuron indices
    boundary: bool = False  # ray lies on a cell wall (+1 attribution)


@dataclass(frozen=True)
class EffectiveSupport:
    groups: tuple
    tau_mass: float
    tau_angle: float
    boundary_atoms: tuple  # original indices whose direction hit a cell wall

    @property
    def count(self) -> int:
        return len(self.groups)

    def cells(self) -> dict[int, int]:
        """Group count per populated cell."""
        out: dict[int, int] = {}
        for g in self.groups:
            out[g.cell_index] = out.get(g.cell_index, 0) + 1
        return out


def _ray_table(obj) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Directions, signed Radon masses and contributing original indices."""
    if isinstance(obj, ParticleNetwork):
        obj = obj.to_measure()
    if isinstance(obj, RadonMeasure):
        dirs = obj.directions
        z = obj.masses.copy()
        members = [[i] for i in range(obj.k)]
    elif isinstance(obj, AtomicMeasure):
        keep, dirs, z = sphere_atoms(obj)
        members = [[int(i)] for i in keep]
    else:
        raise PreconditionError(f"unsupported input type {type(obj).__name__}")

    # pre-merge analytically identical rays; opposite-sign atoms on one ray
    # partially cancel and must be counted once
    heads, summed, rep = merge_identical_rays(dirs, z)
    out_m = {int(h): list(members[h]) for h in heads}
    for j in np.flatnonzero(rep != np.arange(rep.size)):
        out_m[int(rep[j])].extend(members[j])
    return dirs[heads], summed[heads], list(out_m.values())


def effective_support(
    obj,
    decomp: CellDecomposition,
    tau_angle: float = TAU_ANGLE_SOLVER,
) -> EffectiveSupport:
    """Cluster the mass-carrying rays of a measure or network per cell.

    Atoms with Radon mass at most tau_mass = TAU_MASS_REL of the total are
    dropped; survivors are located in the decomposition and single-linkage
    clustered at tau_angle within each cell. A group's representative is
    the absolute-mass-weighted mean direction.
    """
    dirs, z, members = _ray_table(obj)
    tau_mass = TAU_MASS_REL * float(np.sum(np.abs(z)))
    keep = np.flatnonzero(np.abs(z) > tau_mass)
    dirs, z = dirs[keep], z[keep]
    members = [members[i] for i in keep]

    cells = np.zeros(len(z), dtype=int)
    on_wall = np.zeros(len(z), dtype=bool)
    boundary: list[int] = []
    for i, v in enumerate(dirs):
        ci, bflags = locate_cell(decomp, v)
        cells[i] = ci
        on_wall[i] = bool(np.any(bflags))
        if on_wall[i]:
            boundary.extend(members[i])

    groups = []
    for ci in sorted(set(cells.tolist())):
        idx = np.flatnonzero(cells == ci)
        for cluster in cluster_directions(dirs[idx], tau_angle):
            sel = idx[cluster]
            w = np.abs(z[sel])
            rep = (w[:, None] * dirs[sel]).sum(axis=0)
            nrm = np.linalg.norm(rep)
            rep = rep / nrm if nrm > 0 else dirs[sel[0]]
            mem = tuple(sorted(m for i in sel for m in members[i]))
            groups.append(
                SupportGroup(
                    int(ci), rep, float(np.sum(z[sel])), mem,
                    bool(np.all(on_wall[sel])),
                )
            )
    return EffectiveSupport(
        tuple(groups), float(tau_mass), float(tau_angle), tuple(sorted(set(boundary)))
    )


def support_count(obj, tau_angle: float = TAU_ANGLE_TRAINED) -> int:
    """Ray count without a cell decomposition: global angular clustering.

    Lightweight diagnostic for training traces; the cell-aware count from
    effective_support refines this.
    """
    dirs, z, _ = _ray_table(obj)
    keep = np.abs(z) > TAU_MASS_REL * float(np.sum(np.abs(z)))
    return len(cluster_directions(dirs[keep], tau_angle))


def merge_cell_mass(mu: AtomicMeasure, decomp: CellDecomposition) -> AtomicMeasure:
    """Collapse each cell's atoms, per sign of c, into one moment-preserving atom.

    The replacement atom carries the cell aggregates (sum p c a, sum p c b)
    exactly, so predictions at every datapoint are unchanged. Convexity of
    any cell gauge makes the merge regulariser-nonincreasing.
    """
    buckets: dict[tuple[int, int], list[int]] = {}
    for j in range(mu.k):
        if mu.p[j] == 0.0 or mu.c[j] == 0.0:
            continue
        theta = mu.thetas[j]
        if np.linalg.norm(theta) <= 1e-15:
            raise ZeroDirectionError(
                "atom with zero inner direction and nonzero outer weight"
            )
        ci, _ = locate_cell(decomp, theta)
        s = 1 if mu.c[j] > 0 else -1
        buckets.setdefault((ci, s), []).append(j)

    A_rows, b_vals, c_vals, p_vals = [], [], [], []
    for (_, s), idx in sorted(buckets.items()):
        w = mu.p[idx] * mu.c[idx]
        ma = w @ mu.A[idx]
        mb = float(w @ mu.b[idx])
        theta = s * np.append(ma, mb)  # conic combination, stays in the cell
        if np.linalg.norm(theta) <= 1e-15:
            continue
        A_rows.append(theta[:-1])
        b_vals.append(theta[-1])
        c_vals.append(float(s))
        p_vals.append(1.0)
    if not A_rows:
        return AtomicMeasure(
            np.zeros((0, mu.d)), np.zeros(0), np.zeros(0), np.zeros(0)
        )
    return AtomicMeasure(
        np.array(A_rows), np.array(b_vals), np.array(c_vals), np.array(p_vals)
    )


def one_point_per_cell(
    support: EffectiveSupport, include_boundary: bool = False
) -> list[int]:
    """Cells carrying two or more rays; empty list certifies sparsity.

    Rays on cell walls are shared by adjacent closed cells, so the +1
    attribution of a wall ray must not produce a spurious violation; such
    groups are skipped unless include_boundary is set. They remain visible
    through the group table and the boundary_atoms field.
    """
    counts: dict[int, int] = {}
    for g in support.groups:
        if g.boundary and not include_boundary:
            continue
        counts[g.cell_index] = counts.get(g.cell_index, 0) + 1
    return sorted(ci for ci, cnt in counts.items() if cnt >= 2)


def compare_supports(s1: EffectiveSupport, s2: EffectiveSupport) -> dict:
    """Match groups cell by cell; report angular deltas and asymmetries.

    Both supports must come from the same decomposition. Cells populated
    in only one support are listed as unmatched; within a shared cell,
    groups pair greedily by smallest angle.
    """
    by_cell_1: dict[int, list[SupportGroup]] = {}
    by_cell_2: dict[int, list[SupportGroup]] = {}
    for g in s1.groups:
        by_cell_1.setdefault(g.cell_index, []).append(g)
    for g in s2.groups:
        by_cell_2.setdefault(g.cell_index, []).append(g)

    matched = []
    unmatched_1 = sorted(set(by_cell_1) - set(by_cell_2))
    unmatched_2 = sorted(set(by_cell_2) - set(by_cell_1))
    extra = 0
    for ci in sorted(set(by_cell_1) & set(by_cell_2)):
        g1s = list(by_cell_1[ci])
        g2s = list(by_cell_2[ci])
        while g1s and g2s:
            best = None
            for i, g1 in enumerate(g1s):
                for j, g2 in enumerate(g2s):
                    ang = float(angle(g1.direction, g2.direction))
                    if best is None or ang < best[0]:
                        best = (ang, i, j)
            ang, i, j = best
            matched.append({"cell": ci, "delta": ang,
                            "mass_1": g1s[i].mass, "mass_2": g2s[j].mass})
            g1s.pop(i)
            g2s.pop(j)
        extra += len(g1s) + len(g2s)
    return {
        "matched": matched,
        "max_delta": max((m["delta"] for m in matched), default=0.0),
        "unmatched_cells_1": unmatched_1,
        "unmatched_cells_2": unmatched_2,
        "extra_groups": extra,
    }


def representer_check(obj, n: int) -> bool:
    """True iff the effective atom count is at most n."""
    if isinstance(obj, EffectiveSupport):
        return obj.count <= n
    z = np.asarray(obj, dtype=float).ravel()
    scale = max(1.0, float(np.max(np.abs(z)))) if z.size else 1.0
    return int(np.sum(np.abs(z) > 1e-9 * scale)) <= n


@dataclass
class SparsityReport:
    support_count: int
    per_cell: dict
    representer_ok: bool
    violations: list
    boundary_atoms: list
    tau_mass: float
    tau_angle: float
    comparison: dict | None = field(default=None)

    def to_json(self) -> str:
        payload = {
            "support_count": self.support_count,
            "per_cell": {str(k): v for k, v in self.per_cell.items()},
            "representer_ok": self.representer_ok,
            "violations": self.violations,
            "boundary_atoms": self.boundary_atoms,
            "tau_mass": self.tau_mass,
            "tau_angle": self.tau_angle,
        }
        if self.comparison is not None:
            payload["comparison"] = self.comparison
        return json.dumps(payload, indent=2)


def sparsity_report(
    support: EffectiveSupport, n: int, reference: EffectiveSupport | None = None
) -> SparsityReport:
    comparison = compare_supports(support, reference) if reference else None
    return SparsityReport(
        support.count,
        support.cells(),
        representer_check(support, n),
        one_point_per_cell(support),
        list(support.boundary_atoms),
        support.tau_mass,
        support.tau_angle,
        comparison,
    )


def groups_to_csv(support: EffectiveSupport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d1 = support.groups[0].direction.shape[0] if support.groups else 0
        writer.writerow(
            ["cell"] + [f"dir{i}" for i in range(d1)] + ["mass", "members"]
        )
        for g in support.groups:
            writer.writerow(
                [g.cell_index]
                + [repr(float(v)) for v in g.direction]
                + [repr(g.mass), " ".join(map(str, g.members))]
            )
