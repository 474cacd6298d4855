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
    wall_cells: tuple = ()  # boundary groups: the cells whose closure holds the ray


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
    the absolute-mass-weighted mean direction. A group whose atoms all lie
    on a wall is a boundary group; its wall_cells are the cells that agree
    with its cell off the walls that all its atoms lie on.
    """
    dirs, z, members = _ray_table(obj)
    tau_mass = TAU_MASS_REL * float(np.sum(np.abs(z)))
    keep = np.flatnonzero(np.abs(z) > tau_mass)
    dirs, z = dirs[keep], z[keep]
    members = [members[i] for i in keep]

    cells = np.zeros(len(z), dtype=int)
    walls = np.zeros((len(z), decomp.n), dtype=bool)
    for i, v in enumerate(dirs):
        cells[i], walls[i] = locate_cell(decomp, v)
    on_wall = walls.any(axis=1)
    boundary = [m for i in np.flatnonzero(on_wall) for m in members[i]]
    all_signs = np.array([c.signs for c in decomp.cells])

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
            wall_cells = ()
            if np.all(on_wall[sel]):
                off = ~np.all(walls[sel], axis=0)
                same = all_signs[:, off] == all_signs[ci, off]
                wall_cells = tuple(np.flatnonzero(same.all(axis=1)).tolist())
            groups.append(
                SupportGroup(
                    int(ci), rep, float(np.sum(z[sel])), mem,
                    bool(wall_cells), wall_cells,
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


def one_point_per_cell(support: EffectiveSupport) -> list[int]:
    """Cells carrying two or more rays; empty list certifies sparsity.

    Rays on cell walls are shared by adjacent closed cells, so the +1
    attribution of a wall ray must not produce a spurious violation; such
    groups are skipped. They remain visible through the group table and the
    boundary_atoms field.
    """
    counts: dict[int, int] = {}
    for g in support.groups:
        if g.boundary:
            continue
        counts[g.cell_index] = counts.get(g.cell_index, 0) + 1
    return sorted(ci for ci, cnt in counts.items() if cnt >= 2)


def compare_supports(s1: EffectiveSupport, s2: EffectiveSupport) -> dict:
    """Match groups cell by cell; report angular deltas and asymmetries.

    Both supports must come from the same decomposition. Within a cell that
    both populate, groups pair greedily by smallest angle. The mass of a
    wall ray in one support may sit on either side of the wall in the
    other, so a group left over then matches the nearest group of the other
    support in another cell when one of the two is a boundary group whose
    wall_cells hold the other's cell; that group may already be matched.
    Two non-boundary groups never match across cells. The cells of groups
    still left over that the other support does not populate are listed as
    unmatched; the other left-over groups count as extra.
    """
    cells_1 = {g.cell_index for g in s1.groups}
    cells_2 = {g.cell_index for g in s2.groups}
    matched, left = [], []  # left: (group, the other support's groups, from s1)
    for ci in sorted(cells_1 | cells_2):
        g1s = [g for g in s1.groups if g.cell_index == ci]
        g2s = [g for g in s2.groups if g.cell_index == ci]
        while g1s and g2s:
            ang, i, j = min((float(angle(a.direction, b.direction)), i, j)
                            for i, a in enumerate(g1s) for j, b in enumerate(g2s))
            matched.append({"cell": ci, "delta": ang,
                            "mass_1": g1s.pop(i).mass, "mass_2": g2s.pop(j).mass})
        left += [(g, s2.groups, True) for g in g1s] + [(g, s1.groups, False) for g in g2s]

    done: set[int] = set()  # ids of the left-over groups matched across a wall
    for g, others, first in left:
        near = [(float(angle(g.direction, h.direction)), j)
                for j, h in enumerate(others)
                if h.cell_index != g.cell_index
                and (g.cell_index in h.wall_cells or h.cell_index in g.wall_cells)]
        if id(g) in done or not near:
            continue
        ang, j = min(near)
        g1, g2 = (g, others[j]) if first else (others[j], g)
        matched.append({"cell": g.cell_index, "delta": ang,
                        "mass_1": g1.mass, "mass_2": g2.mass})
        done |= {id(g1), id(g2)}
    rest = [(g.cell_index, first) for g, _, first in left if id(g) not in done]
    unmatched_1 = sorted({ci for ci, first in rest if first} - cells_2)
    unmatched_2 = sorted({ci for ci, first in rest if not first} - cells_1)
    extra = sum(ci in (cells_2 if first else cells_1) for ci, first in rest)
    return {
        "matched": matched,
        "max_delta": max((m["delta"] for m in matched), default=0.0),
        "unmatched_cells_1": unmatched_1,
        "unmatched_cells_2": unmatched_2,
        "extra_groups": extra,
    }


def representer_check(support: EffectiveSupport, n: int) -> bool:
    """True iff the effective atom count is at most n."""
    return support.count <= n


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
