"""Experiment harness: eigenfrequency tables, convergence orders, sweeps.

Reproduces the three benchmark experiments at desk scale:

* ``square``  -- unit square, whole boundary clamped,
* ``lshape``  -- L-shaped domain (0,2)^2 minus (1,2)^2, whole boundary clamped,
* ``mixed``   -- unit square clamped on the bottom side only.

Each run solves a ladder of uniformly refined meshes (level n means cell
size 1/n), reports the first eigenfrequencies omega = sqrt(gamma) per
level, and extrapolates the convergence order of the eigenvalues from the
three finest levels.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import cr as cr_mod
from . import wg as wg_mod
from .errors import SolverFailure
from .mesh import (
    Mesh,
    bottom_dirichlet,
    build_lshape_mesh,
    build_square_mesh,
    classify_boundary,
    full_dirichlet,
)
from .polyquad import MAX_TRIANGLE_DEGREE

__all__ = [
    "ExperimentConfig",
    "RateTable",
    "richardson_limit",
    "run_experiment",
    "locking_sweep",
    "check_lower_bounds",
    "lower_bound_violation",
    "emit",
    "parse_csv",
    "EXPERIMENTS",
]

LOWER_BOUND_SLACK = 1e-8  # how far a ladder may rise above its Richardson limit

# experiment name -> (domain, boundary)
EXPERIMENTS = {
    "square": ("square", "all-dirichlet"),
    "lshape": ("lshape", "all-dirichlet"),
    "mixed": ("square", "bottom-dirichlet"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    domain: str = "square"
    boundary: str = "all-dirichlet"
    method: str = "wg"
    order: int = 1
    E: float = 1.0
    nu: float = 0.49
    delta: float = 0.05
    levels: tuple = (16, 32, 64)
    num_eigs: int = 4
    seed: int = 0

    def __post_init__(self):
        try:  # a float would truncate (levels) or fail inside numpy after meshing
            object.__setattr__(self, "levels", tuple(map(operator.index, self.levels)))
            for name in ("num_eigs", "order", "seed"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError as exc:
            raise ValueError(f"levels, num_eigs, order and seed must be integers: {exc}") from None
        if self.domain not in ("square", "lshape"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.boundary not in ("all-dirichlet", "bottom-dirichlet"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.method not in ("wg", "cr"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.num_eigs < 1:
            raise ValueError("num_eigs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        kmax = (MAX_TRIANGLE_DEGREE - 2) // 2  # the WG cell rule is exact to degree 2k + 2
        if not 1 <= self.order <= kmax:
            raise ValueError(f"WG order k must be between 1 and {kmax}")
        wg_mod.ElasticParams(E=self.E, nu=self.nu)  # checks E and nu
        wg_mod.StabilizationConfig(delta=self.delta)  # checks delta
        if not self.levels:
            raise ValueError("levels must not be empty")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if any(n < 1 or n & (n - 1) for n in self.levels):
            raise ValueError("levels must be positive powers of two")


@dataclass
class RateTable:
    """Eigenfrequencies per level plus extrapolated eigenvalue orders."""

    config: ExperimentConfig
    gammas: np.ndarray          # (num_eigs, nlevels), NaN on failed levels
    failures: dict = field(default_factory=dict)  # level -> message

    @property
    def levels(self) -> tuple:
        return self.config.levels

    @property
    def omegas(self) -> np.ndarray:
        return np.sqrt(self.gammas)

    @property
    def orders(self) -> np.ndarray:
        """(num_eigs,) convergence_order of each gamma row when the three finest
        levels are h, h/2, h/4; NaN otherwise."""
        lv = self.levels[-3:]
        if len(lv) < 3 or lv[1] != 2 * lv[0] or lv[2] != 2 * lv[1]:
            return np.full(len(self.gammas), np.nan)
        return np.array([convergence_order(*row[-3:]) for row in self.gammas])


def convergence_order(g1: float, g2: float, g3: float) -> float:
    """Extrapolated order from eigenvalues at h, h/2, h/4.

    Returns lg((g1-g2)/(g2-g3))/lg 2, or NaN when the consecutive
    differences vanish or disagree in sign.
    """
    d1 = g1 - g2
    d2 = g2 - g3
    if d2 == 0.0 or d1 * d2 <= 0.0:
        return math.nan
    return math.log(d1 / d2) / math.log(2.0)


def richardson_limit(g1: float, g2: float, g3: float) -> float:
    """Aitken extrapolation of a geometrically converging ladder."""
    d1 = g2 - g1
    d2 = g3 - g2
    denom = d1 - d2
    if denom == 0.0:
        return g3
    return g3 + d2 * d2 / denom

def _build_mesh(cfg: ExperimentConfig, n: int) -> Mesh:
    m = build_square_mesh(n) if cfg.domain == "square" else build_lshape_mesh(n)
    spec = full_dirichlet() if cfg.boundary == "all-dirichlet" else bottom_dirichlet()
    return classify_boundary(m, spec)


def solve_level(cfg: ExperimentConfig, n: int) -> wg_mod.EigenResult:
    """Solve one refinement level of an experiment."""
    mesh = _build_mesh(cfg, n)
    params = wg_mod.ElasticParams(E=cfg.E, nu=cfg.nu)
    stab = wg_mod.StabilizationConfig(delta=cfg.delta)
    if cfg.method == "wg":
        sys = wg_mod.assemble_forms(wg_mod.WgSpace(mesh, cfg.order), params, stab)
    else:
        sys = cr_mod.assemble_cr(cr_mod.CrSpace(mesh), params, stab)
    return wg_mod.solve_eigen(sys, cfg.num_eigs, seed=cfg.seed)


def run_experiment(cfg: ExperimentConfig) -> RateTable:
    """Run the whole refinement ladder; per-level failures are recorded.

    A level fails when its solver raises SolverFailure, unconverged
    eigenpairs included; its column of the table is then NaN."""
    gammas = np.full((cfg.num_eigs, len(cfg.levels)), np.nan)
    failures = {}
    for col, n in enumerate(cfg.levels):
        try:
            gammas[:, col] = solve_level(cfg, n).eigenvalues
        except SolverFailure as exc:
            failures[n] = str(exc)
    return RateTable(config=cfg, gammas=gammas, failures=failures)


def locking_sweep(cfg: ExperimentConfig, nus) -> dict:
    """Run the experiment per Poisson ratio and report eigenfrequency drift.

    Each distinct nu is solved once; at least two are needed (ValueError).
    Returns {"nus": ..., "tables": {nu: RateTable}, "max_rel_deviation":
    (num_eigs, nlevels) array of the spread across nu values}.
    """
    nus = list(nus)
    if len(set(nus)) < 2:
        raise ValueError("locking sweep needs at least two distinct Poisson ratios")
    tables = {nu: run_experiment(replace(cfg, nu=nu)) for nu in dict.fromkeys(nus)}
    stack = np.stack([tables[nu].omegas for nu in nus])  # (nnu, m, nlev)
    dev = (stack.max(axis=0) - stack.min(axis=0)) / stack.min(axis=0)
    return {"nus": nus, "tables": tables, "max_rel_deviation": dev}


def lower_bound_violation(table: RateTable) -> Optional[str]:
    """Why the gamma ladder is no lower-bound ladder, or None if it is.

    The ladder must be nondecreasing in every eigenpair and, with three or
    more levels, stay below its Richardson limit (plus LOWER_BOUND_SLACK).
    """
    g = table.gammas
    if np.any(np.isnan(g)):
        return "a level has no eigenvalues"
    step = np.diff(g, axis=1)
    if np.any(step < 0):
        j, col = np.unravel_index(np.argmin(step), step.shape)
        a, b = table.levels[col], table.levels[col + 1]
        return f"gamma_{j + 1} drops by {-step[j, col]:.3e} from n={a} to n={b}"
    if g.shape[1] >= 3:
        for j, row in enumerate(g):
            limit = richardson_limit(*row[-3:])
            excess = row.max() - limit
            if excess > LOWER_BOUND_SLACK:
                return f"gamma_{j + 1} exceeds its Richardson limit {limit:.6g} by {excess:.3e}"
    return None


def check_lower_bounds(table: RateTable) -> bool:
    """Monotone nondecreasing gamma ladder, below its Richardson limit."""
    return lower_bound_violation(table) is None


def emit(table: RateTable, fmt: str, path) -> None:
    """Write a table as CSV (machine format) or markdown (report layout)."""
    if fmt == "csv":
        _emit_csv(table, path)
    elif fmt == "md":
        _emit_markdown(table, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _emit_csv(table: RateTable, path) -> None:
    with open(path, "w") as fh:
        fh.write("j,h,omega,order\n")
        for j, (row, order) in enumerate(zip(table.omegas, table.orders)):
            text = repr(float(order)) if len(table.levels) >= 3 else ""  # empty: no triple
            for n, omega in zip(table.levels, row):
                fh.write(f"{j + 1},1/{n},{float(omega)!r},{text}\n")


def parse_csv(path):
    """Re-parse an emitted CSV into (levels, omegas, orders)."""
    import csv

    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return (), np.zeros((0, 0)), np.zeros(0)
    levels = sorted({int(r["h"].split("/")[1]) for r in rows})
    js = sorted({int(r["j"]) for r in rows})
    omegas = np.full((len(js), len(levels)), np.nan)
    orders = np.full(len(js), np.nan)
    for r in rows:
        j = int(r["j"]) - 1
        col = levels.index(int(r["h"].split("/")[1]))
        omegas[j, col] = float(r["omega"])
        if r["order"]:
            orders[j] = float(r["order"])
    return tuple(levels), omegas, orders


def _emit_markdown(table: RateTable, path) -> None:
    hs = [f"1/{n}" for n in table.levels]
    with open(path, "w") as fh:
        fh.write("| h | " + " | ".join(hs) + " | Order |\n")
        fh.write("|" + "---|" * (len(hs) + 2) + "\n")
        for j, (row, order) in enumerate(zip(table.omegas, table.orders)):
            cells = [f"{w:.6f}" for w in row]
            order = "-" if math.isnan(order) else f"{order:.2f}"
            fh.write(f"| omega_{j + 1} | " + " | ".join(cells) + f" | {order} |\n")
