"""Acceptance suite: one test per headline claim, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``.  Setting the environment
variable ``ELASTICA_FULL_LADDER=1`` extends the clamped-square benchmark to
h = 1/128 and tightens its order window; the default ladder keeps the whole
suite a few minutes long.
"""

import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from elastica import (
    CrFunction,
    CrSpace,
    ElasticParams,
    ExperimentConfig,
    StabilizationConfig,
    WgFunction,
    WgSpace,
    assemble_cr,
    assemble_forms,
    interpolate,
    run_experiment,
    solve_source,
)
from elastica.lab import check_lower_bounds, solve_level
from elastica.cr import jump_values
from elastica.project import (
    project_cell_scalar,
    project_global,
)
from elastica.spectra import smallest_generalized_eigs
from elastica.wg import norms, weak_divergence, weak_gradient, weak_strain
from elastica._quadmap import edge_quadrature
from conftest import PolyField, square

FULL = os.environ.get("ELASTICA_FULL_LADDER") == "1"

_CONFIGS = {
    "square-wg1": ExperimentConfig(
        levels=(16, 32, 64, 128) if FULL else (16, 32, 64)
    ),
    "square-wg2": ExperimentConfig(order=2, levels=(4, 8, 16)),
    "lshape-wg1": ExperimentConfig(domain="lshape", levels=(16, 32, 64)),
    "lshape-wg2": ExperimentConfig(domain="lshape", order=2, levels=(4, 8, 16)),
    "lshape-cr": ExperimentConfig(domain="lshape", method="cr", levels=(16, 32, 64)),
    "mixed-wg1": ExperimentConfig(boundary="bottom-dirichlet", levels=(16, 32, 64)),
    "mixed-wg2": ExperimentConfig(
        boundary="bottom-dirichlet", order=2, levels=(4, 8, 16)
    ),
    "mixed-cr": ExperimentConfig(
        boundary="bottom-dirichlet", method="cr", levels=(32, 64, 128)
    ),
}

_TABLES = {}


def table(key):
    if key not in _TABLES:
        _TABLES[key] = run_experiment(_CONFIGS[key])
        assert not _TABLES[key].failures, _TABLES[key].failures
    return _TABLES[key]


def test_criterion_1_clamped_square_eigenfrequency_table():
    t = table("square-wg1")
    reference = np.array([4.133787, 4.173779, 4.184683, 4.187561])
    nlev = len(t.levels)
    rel = np.abs(t.omegas[0] - reference[:nlev]) / reference[:nlev]
    assert rel.max() <= 2e-3

    ref_orders = np.array([1.92, 1.91, 1.91, 1.91])
    window = 0.15 if FULL else 0.2
    assert np.abs(t.orders - ref_orders).max() <= window
    print(
        f"\nPASS criterion 1: omega_1 ladder within {rel.max():.1e} rel of the "
        f"reference, orders {np.round(t.orders, 2)} within +/-{window}"
    )


def test_criterion_2_locking_free_near_incompressibility():
    omegas = {}
    for nu in (0.4999, 0.499999):
        cfg = ExperimentConfig(nu=nu, levels=(16, 32, 64), num_eigs=1)
        omegas[nu] = run_experiment(cfg).omegas[0]
    drift = np.abs(omegas[0.4999] - omegas[0.499999]) / omegas[0.4999]
    assert drift.max() < 1e-3
    print(
        f"\nPASS criterion 2: first eigenfrequency moves by at most "
        f"{drift.max():.1e} relative between nu=0.4999 and nu=0.499999"
    )


def test_criterion_3_lower_bound_monotonicity():
    # vanishing-stabilization WG ladders increase toward the limit on all
    # three benchmarks for k = 1 and 2; CR shows the same on the mixed
    # benchmark and on the singular first mode of the L-shape (its smooth
    # modes converge from above, so they are excluded -- see the clamped CR
    # tables, which decrease)
    wg_keys = [
        "square-wg1", "square-wg2",
        "lshape-wg1", "lshape-wg2",
        "mixed-wg1", "mixed-wg2",
    ]
    for key in wg_keys:
        t = table(key)
        assert check_lower_bounds(t), f"{key}: {t.gammas}"
    t = table("mixed-cr")
    assert check_lower_bounds(t), f"mixed-cr: {t.gammas}"
    tl = table("lshape-cr")
    assert np.all(np.diff(tl.gammas[0]) >= 0), tl.gammas[0]
    print(
        "\nPASS criterion 3: gamma ladders nondecreasing and below their "
        "extrapolated limits on all WG benchmarks, on mixed-boundary CR, and "
        "on the singular L-shape CR mode"
    )


def test_criterion_4_lshape_singular_rates():
    t = table("lshape-wg1")
    assert 1.30 <= t.orders[0] <= 1.60
    assert 1.75 <= t.orders[3] <= 2.00
    print(
        f"\nPASS criterion 4: L-shape orders omega_1 {t.orders[0]:.2f} in "
        f"[1.30, 1.60], omega_4 {t.orders[3]:.2f} in [1.75, 2.00]"
    )


def test_criterion_5_cr_mixed_boundary():
    t = table("mixed-cr")
    ref = 0.695688
    rel = abs(t.omegas[0, 0] - ref) / ref
    assert rel <= 2e-3
    assert abs(t.orders[2] - 1.94) <= 0.2
    print(
        f"\nPASS criterion 5: CR omega_1(1/32) = {t.omegas[0, 0]:.6f} "
        f"({rel:.1e} rel), omega_3 order {t.orders[2]:.2f} within 1.94 +/- 0.2"
    )


@pytest.mark.parametrize("k,ns", [(1, (8, 16, 32)), (2, (4, 8, 16))])
def test_criterion_6_source_problem_rates(k, ns):
    params = ElasticParams(E=1.0, nu=0.3)
    stab = StabilizationConfig()
    mu, lam = params.mu, params.lam
    pi = np.pi

    def u(x, y):
        s = np.sin(pi * x) * np.sin(pi * y)
        return np.stack([s, s], axis=-1)

    def f(x, y):
        # -div sigma(u) for u = (g, g), g = sin(pi x) sin(pi y)
        s = np.sin(pi * x) * np.sin(pi * y)
        c = np.cos(pi * x) * np.cos(pi * y)
        val = 2 * mu * pi**2 * s + (mu + lam) * pi**2 * (s - c)
        return np.stack([val, val], axis=-1)

    ev, ex = [], []
    for n in ns:
        space = WgSpace(square(n), k)
        uh = solve_source(space, params, stab, f)
        err = WgFunction(space, project_global(u, space).coeffs - uh.coeffs)
        vn, xn = norms(err, params)
        ev.append(vn)
        ex.append(xn)
    v_rate = np.log2(ev[-2] / ev[-1])
    x_rate = np.log2(ex[-2] / ex[-1])
    assert abs(v_rate - k) <= 0.2
    assert abs(x_rate - (k + 1)) <= 0.2
    print(
        f"\nPASS criterion 6 (k={k}): energy-norm rate {v_rate:.2f} ~ {k}, "
        f"L2 rate {x_rate:.2f} ~ {k + 1}"
    )


def test_criterion_7_property_suites():
    # exchange identities on 100 random polynomial fields
    for k, count in ((1, 60), (2, 40)):
        m = square(2)
        space = WgSpace(m, k)
        rng = np.random.default_rng(k)
        for _ in range(count):
            field = PolyField(k + 1, rng)
            v = project_global(field, space)
            assert (
                np.abs(
                    weak_gradient(v) - project_cell_scalar(field.gradient(), m, k)
                ).max()
                <= 1e-11
            )
            assert (
                np.abs(
                    weak_strain(v) - project_cell_scalar(field.strain(), m, k)
                ).max()
                <= 1e-11
            )
            assert (
                np.abs(
                    weak_divergence(v)
                    - project_cell_scalar(field.divergence(), m, k)
                ).max()
                <= 1e-11
            )

    # projection idempotence / identity on the discrete space
    m = square(3)
    for k in (1, 2):
        space = WgSpace(m, k)
        field = PolyField(k, np.random.default_rng(7 + k))
        v = project_global(field, space)
        w = project_global(field, space)
        assert np.abs(v.coeffs - w.coeffs).max() <= 1e-12

    # CR edge moments and jump means
    crspace = CrSpace(square(4))
    vcr = interpolate(
        lambda x, y: np.stack([x**2, x * y], axis=-1), crspace
    )
    _, pts, wq = edge_quadrature(crspace.mesh, 8)
    fvals = np.stack([pts[..., 0] ** 2, pts[..., 0] * pts[..., 1]], axis=-1)
    fmeans = np.einsum("eq,eqc->ec", wq, fvals)
    fmeans /= crspace.mesh.edge_lengths()[:, None]
    assert np.abs(fmeans - vcr.edge_means()).max() <= 1e-12

    rng = np.random.default_rng(11)
    vr = CrFunction(crspace, rng.standard_normal(crspace.num_dofs))
    ie, jumps, wj = jump_values(vr)
    jmeans = np.einsum("eq,eqc->ec", wj, jumps)
    jmeans /= crspace.mesh.edge_lengths()[ie][:, None]
    assert np.abs(jmeans).max() <= 1e-12

    # assembled-matrix symmetry
    params = ElasticParams(nu=0.49)
    stab = StabilizationConfig()
    for sys in (
        assemble_forms(WgSpace(square(4), 1), params, stab),
        assemble_cr(CrSpace(square(4)), params, stab),
    ):
        for M in (sys.A, sys.B):
            diff = (M - M.T).tocoo()
            scale = np.abs(M.data).max()
            assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale

    # generalized eigensolver against the dense reference
    rng = np.random.default_rng(13)
    for _ in range(3):
        MA = rng.standard_normal((50, 50))
        A = MA @ MA.T + 50 * np.eye(50)
        MB = rng.standard_normal((50, 50))
        B = MB @ MB.T + 50 * np.eye(50)
        vals, _, _ = smallest_generalized_eigs(
            sp.csr_matrix(A), sp.csr_matrix(B), 5
        )
        ref = np.sort(scipy.linalg.eigh(A, B, eigvals_only=True))[:5]
        assert np.abs(vals - ref).max() <= 1e-9 * np.abs(ref).max()

    # eigenpair residuals on one level of every benchmark configuration
    worst = 0.0
    for key, cfg in _CONFIGS.items():
        res = solve_level(cfg, cfg.levels[0])
        worst = max(worst, res.residuals.max())
        assert res.residuals.max() <= 1e-8, key
    print(
        "\nPASS criterion 7: exchange identities, projection idempotence, CR "
        f"edge/jump moments, matrix symmetry, dense-oracle agreement, and "
        f"eigen residuals (worst {worst:.1e}) all within tolerance"
    )
