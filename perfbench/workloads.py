"""The benchmark workloads: what one ladder runs and how its output is checked.

Each workload drives the lab through the public calls a user makes.  `run`
solves a ladder and returns its output; `check` returns, per level solve, the
list of reasons that level failed the correctness gate (empty when it passed).

Why these three:

* ``wg-square-eig`` -- paper table 1 (WG k=1, clamped square, nu=0.49).  The
  eigensolve is >=95% of each level, so eigensolver and factorization
  changes show here.
* ``cr-mixed-eig`` -- CR on the square clamped on the bottom only, the case
  with a singular eigenfunction where CR gives lower bounds.  The jump
  penalty widens the stencil, so CR assembly and CR fill show here; WG-only
  changes should predict no change.
* ``wg-source`` -- the manufactured-solution source problem for k=1 and k=2.
  One factorization and one solve per level, no eigen iteration; mesh, pack,
  assemble, projection and norms are a large share.  Eigensolver changes
  should predict no change.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from elastica import lab, mesh, project, wg

import reference
from env import OUT

EIG_RTOL = 1e-10    # eigenvalues against the recorded seed values
OMEGA_ATOL = 1e-6   # first eigenfrequency against the paper's six digits
NORM_RTOL = 1e-8    # source-problem error norms against the recorded values
RATE_WINDOW = 0.2   # criterion 6: energy rate ~ k, L2 rate ~ k + 1


class EigenLadder:
    """lab.run_experiment -> lab.emit -> lab.check_lower_bounds on one config."""

    def __init__(self, name, cfg, gammas, omega1=None):
        self.name = name
        self.cfg = cfg
        self.gammas = gammas      # level -> recorded eigenvalues
        self.omega1 = omega1      # level -> paper's first eigenfrequency
        self.levels = cfg.levels
        self.coarsest = cfg.levels[:1]

    def run(self, seed, levels):
        table = lab.run_experiment(replace(self.cfg, levels=levels, seed=seed))
        path = OUT / f"{self.name}.csv"
        lab.emit(table, "csv", path)
        return table, path, lab.check_lower_bounds(table)

    def check(self, output):
        table, path, lower_ok = output
        faults = []
        for col, n in enumerate(table.levels):
            found = []
            if n in table.failures:
                found.append(f"solver failure at n={n}: {table.failures[n]}")
            ref = self.gammas[n]
            rel = np.abs(table.gammas[:, col] - ref) / np.abs(ref)
            if not np.all(rel <= EIG_RTOL):
                found.append(f"n={n}: eigenvalues off by {rel.max():.1e} relative")
            if self.omega1 is not None:
                gap = abs(table.omegas[0, col] - self.omega1[n])
                if not gap <= OMEGA_ATOL:
                    found.append(f"n={n}: omega_1 off the paper by {gap:.1e}")
            faults.append(found)
        ladder = []
        if not lower_ok:
            ladder.append("check_lower_bounds is false")
        levels, omegas, _ = lab.parse_csv(path)
        if levels != table.levels or not np.array_equal(omegas, table.omegas):
            ladder.append("emitted CSV does not match the table")
        return [found + ladder for found in faults]


class SourceLadder:
    """wg.solve_source -> project.project_global -> wg.norms on two ladders."""

    name = "wg-source"
    levels = tuple((1, n) for n in (16, 32, 64, 128)) + tuple(
        (2, n) for n in (8, 16, 32, 64)
    )
    coarsest = ((1, 16), (2, 8))
    params = wg.ElasticParams(E=1.0, nu=0.3)
    stab = wg.StabilizationConfig()

    def __init__(self, norms):
        self.norms = norms        # (k, n) -> recorded (energy, L2) error norms

    def _exact(self, x, y):
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.stack([s, s], axis=-1)

    def _load(self, x, y):
        # -div sigma(u) for u = (g, g), g = sin(pi x) sin(pi y)
        mu, lam = self.params.mu, self.params.lam
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        c = np.cos(np.pi * x) * np.cos(np.pi * y)
        val = 2 * mu * np.pi**2 * s + (mu + lam) * np.pi**2 * (s - c)
        return np.stack([val, val], axis=-1)

    def run(self, seed, levels):
        # the source problem is deterministic: the seed is not used
        rows = []
        for k, n in levels:
            m = mesh.classify_boundary(mesh.build_square_mesh(n), mesh.full_dirichlet())
            space = wg.WgSpace(m, k)
            uh = wg.solve_source(space, self.params, self.stab, self._load)
            exact = project.project_global(self._exact, space)
            err = wg.WgFunction(space, exact.coeffs - uh.coeffs)
            rows.append(wg.norms(err, self.params))
        return levels, rows

    def check(self, output):
        levels, rows = output
        faults = []
        for (k, n), got in zip(levels, rows):
            ref = self.norms[(k, n)]
            rel = np.abs(np.subtract(got, ref)) / np.abs(ref)
            ok = np.all(rel <= NORM_RTOL)
            faults.append([] if ok else [f"k={k} n={n}: norms off by {rel.max():.1e}"])
        for k in {k for k, _ in levels}:
            idx = [i for i, (kk, _) in enumerate(levels) if kk == k]
            if len(idx) < 2:
                continue
            (v1, x1), (v2, x2) = rows[idx[-2]], rows[idx[-1]]
            v_rate, x_rate = np.log2(v1 / v2), np.log2(x1 / x2)
            if not (abs(v_rate - k) <= RATE_WINDOW and abs(x_rate - k - 1) <= RATE_WINDOW):
                for i in idx:
                    faults[i].append(f"k={k}: rates {v_rate:.2f}, {x_rate:.2f} off window")
        return faults


WORKLOADS = {
    w.name: w
    for w in (
        EigenLadder(
            "wg-square-eig",
            lab.ExperimentConfig(levels=(16, 32, 64), num_eigs=4, nu=0.49),
            reference.WG_SQUARE_GAMMAS,
            omega1=reference.PAPER_OMEGA1,
        ),
        EigenLadder(
            "cr-mixed-eig",
            lab.ExperimentConfig(
                boundary="bottom-dirichlet", method="cr", levels=(32, 64, 128), num_eigs=4
            ),
            reference.CR_MIXED_GAMMAS,
        ),
        SourceLadder(reference.SOURCE_NORMS),
    )
}
