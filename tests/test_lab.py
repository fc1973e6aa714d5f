import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastica import ExperimentConfig, RateTable, lab, run_experiment
from elastica.lab import (
    check_lower_bounds,
    convergence_order,
    emit,
    parse_csv,
    richardson_limit,
)


def test_convergence_order_trivial():
    g, c = 17.5, 0.3
    assert convergence_order(g - c, g - c / 4, g - c / 16) == pytest.approx(2.0)
    assert convergence_order(g - c, g - c / 2, g - c / 4) == pytest.approx(1.0)


@given(
    st.floats(0.5, 100.0),
    st.floats(1e-3, 1.0),
    st.floats(0.25, 3.5),
)
@settings(max_examples=50, deadline=None)
def test_convergence_order_recovers_rate(gamma, c, rate):
    r = 2.0**-rate
    got = convergence_order(gamma - c, gamma - c * r, gamma - c * r * r)
    assert got == pytest.approx(rate, rel=1e-9)


def test_convergence_order_sign_violation_is_nan():
    assert math.isnan(convergence_order(1.0, 2.0, 1.5))
    assert math.isnan(convergence_order(1.0, 1.0, 1.0))
    assert math.isnan(convergence_order(1.0, 2.0, 2.0))


def test_richardson_limit():
    g, c = 4.2, 0.5
    ladder = (g - c, g - c / 4, g - c / 16)
    assert richardson_limit(*ladder) == pytest.approx(g, rel=1e-12)


def test_config_validation():
    ExperimentConfig(levels=(4, 8, 16))
    with pytest.raises(ValueError):
        ExperimentConfig(domain="disk")
    with pytest.raises(ValueError):
        ExperimentConfig(boundary="left")
    with pytest.raises(ValueError):
        ExperimentConfig(method="fem")
    with pytest.raises(ValueError):
        ExperimentConfig(levels=(8, 4))
    with pytest.raises(ValueError):
        ExperimentConfig(levels=(3, 6))
    with pytest.raises(ValueError):
        ExperimentConfig(num_eigs=0)
    # checked before any meshing: Poisson ratio, WG order, stabilization
    # exponent and an empty ladder
    with pytest.raises(ValueError):
        ExperimentConfig(nu=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(order=0)
    with pytest.raises(ValueError):
        ExperimentConfig(order=15)  # its cell rule would need exactness 32
    with pytest.raises(ValueError):
        ExperimentConfig(delta=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(levels=())
    # level 0 and non-finite E or delta
    with pytest.raises(ValueError):
        ExperimentConfig(levels=(0, 2))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ExperimentConfig(E=bad)
        with pytest.raises(ValueError):
            ExperimentConfig(delta=bad)
    # non-integral or negative counts, caught before they truncate or reach numpy
    for bad in (
        dict(levels=(2.5, 4)),
        dict(num_eigs=2.5),
        dict(order=1.5),
        dict(seed=-1),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


@pytest.mark.parametrize("nus", [[], [0.3], [0.3, 0.3]], ids=["none", "single", "repeated"])
def test_locking_sweep_needs_two_distinct_ratios(monkeypatch, nus):
    def never(cfg):
        raise AssertionError("run_experiment called for a sweep of one nu")

    monkeypatch.setattr(lab, "run_experiment", never)
    with pytest.raises(ValueError, match="two distinct Poisson ratios"):
        lab.locking_sweep(ExperimentConfig(levels=(2, 4), num_eigs=1), nus)


def test_locking_sweep_checks_every_ratio_before_any_solve(monkeypatch):
    def never(cfg):
        raise AssertionError("run_experiment called before every nu was checked")

    monkeypatch.setattr(lab, "run_experiment", never)
    cfg = ExperimentConfig(levels=(2, 4), num_eigs=1)
    with pytest.raises(ValueError, match="Poisson ratio"):
        lab.locking_sweep(cfg, [0.3, 0.5])
    configs = lab.sweep_configs(cfg, [0.35, 0.3, 0.35])
    assert list(configs) == [0.35, 0.3]
    assert [c.nu for c in configs.values()] == [0.35, 0.3]


def test_run_experiment_small_and_deterministic():
    cfg = ExperimentConfig(levels=(2, 4), num_eigs=2)
    t1 = run_experiment(cfg)
    t2 = run_experiment(cfg)
    assert np.array_equal(t1.omegas, t2.omegas)
    assert np.isnan(t1.orders).all() and t1.orders.shape == (2,)  # fewer than three levels
    assert not t1.failures
    assert np.all(t1.omegas > 0)
    assert np.allclose(t1.omegas, np.sqrt(t1.gammas))


def test_run_experiment_orders_from_finest_triple():
    cfg = ExperimentConfig(levels=(2, 4, 8), num_eigs=2)
    t = run_experiment(cfg)
    assert t.orders is not None and t.orders.shape == (2,)


def _fabricated(gammas, levels=(4, 8, 16)):
    cfg = ExperimentConfig(levels=levels, num_eigs=max(gammas.shape[0], 1))
    return RateTable(config=cfg, gammas=gammas)


def test_orders_are_derived_from_the_gammas(tmp_path):
    gammas = np.array([[4.0, 4.1, 4.12], [5.0, 5.2, 5.25]])
    geometric = _fabricated(gammas)
    want = [convergence_order(*row) for row in gammas]
    assert np.array_equal(geometric.orders, want)
    two = _fabricated(gammas[:, 1:], levels=(8, 16))
    skewed = _fabricated(gammas, levels=(2, 8, 16))  # not h, h/2, h/4
    for table in (two, skewed):
        assert table.orders.shape == (2,) and np.isnan(table.orders).all()
    # CSV: a numeric order column, an empty one below three levels, nan for a skewed triple
    for table, cell in ((geometric, repr(want[0])), (two, ""), (skewed, "nan")):
        path = tmp_path / "t.csv"
        emit(table, "csv", path)
        assert path.read_text().splitlines()[1].split(",")[3] == cell
        orders = parse_csv(path)[2]
        assert orders.shape == (2,)
        np.testing.assert_array_equal(orders, table.orders)  # NaN where the column is empty
        emit(table, "md", tmp_path / "t.md")
        rows = (tmp_path / "t.md").read_text().splitlines()[2:]
        for row, order in zip(rows, table.orders):
            assert row.endswith("| - |" if math.isnan(order) else f"| {order:.2f} |")


def test_check_lower_bounds():
    good = _fabricated(np.array([[4.0, 4.1, 4.125]]))
    assert check_lower_bounds(good)
    decreasing = _fabricated(np.array([[4.2, 4.1, 4.05]]))
    assert not check_lower_bounds(decreasing)
    with_nan = _fabricated(np.array([[4.0, np.nan, 4.1]]))
    assert not check_lower_bounds(with_nan)
    # accelerating differences put the ladder above its own extrapolated
    # limit: monotone yet not converging from below
    accel = np.array([[4.0, 4.1, 5.1]])
    assert richardson_limit(*accel[0]) < accel[0, 2]
    assert not check_lower_bounds(_fabricated(accel))


def test_emit_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig(levels=(2, 4, 8), num_eigs=2)
    table = run_experiment(cfg)
    path = tmp_path / "t.csv"
    emit(table, "csv", path)
    levels, omegas, orders = parse_csv(path)
    assert levels == table.levels
    assert np.array_equal(omegas, table.omegas)  # repr round-trips exactly
    assert np.allclose(orders, table.orders, equal_nan=True)


def test_emit_csv_row_count(tmp_path):
    gammas = np.tile(np.array([4.0, 4.1, 4.12, 4.125]), (4, 1))
    gammas += np.arange(4)[:, None]
    table = _fabricated(gammas, levels=(2, 4, 8, 16))
    path = tmp_path / "t.csv"
    emit(table, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "j,h,omega,order"
    assert len(lines) == 1 + 16


def test_emit_empty_table(tmp_path):
    table = _fabricated(np.zeros((0, 3)))
    for fmt, name in (("csv", "e.csv"), ("md", "e.md")):
        path = tmp_path / name
        emit(table, fmt, path)
        lines = path.read_text().splitlines()
        assert len(lines) == (1 if fmt == "csv" else 2)  # header(s) only


def test_emit_markdown_shape(tmp_path):
    table = _fabricated(np.array([[4.0, 4.1, 4.12], [5.0, 5.1, 5.12]]))
    path = tmp_path / "t.md"
    emit(table, "md", path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("| h |") and lines[0].endswith("| Order |")
    assert len(lines) == 2 + 2
    assert lines[2].startswith("| omega_1 |")
    assert lines[2].rstrip().endswith("| 2.32 |")  # lg(0.1 / 0.02) / lg 2 = log2(5)
    emit(_fabricated(np.array([[4.0, 4.1]]), levels=(4, 8)), "md", path)
    assert path.read_text().splitlines()[2].rstrip().endswith("| - |")  # no triple


def test_emit_unknown_format(tmp_path):
    table = _fabricated(np.array([[4.0, 4.1, 4.12]]))
    with pytest.raises(ValueError):
        emit(table, "xml", tmp_path / "t.xml")


def test_each_level_keeps_its_record():
    cfg = ExperimentConfig(levels=(4, 8), num_eigs=2)
    start = time.perf_counter()
    res = lab.solve_level(cfg, 8)
    wall = time.perf_counter() - start
    rec = res.record
    assert [f.name for f in dataclasses.fields(rec)] == ["report", "mesh_s", "assemble_s",
                                                         "peak_mb"]  # no eigenvectors
    assert rec.report is res.report and rec.report.pairs == (2, 2, 2, 2)
    report = rec.report
    stages = (rec.mesh_s, rec.assemble_s, report.factor_s, report.krylov_s, report.finish_s)
    assert all(t > 0.0 for t in stages) and sum(stages) <= wall
    # ru_maxrss is a running maximum, read after the mesh, the assembly and the solve
    assert len(rec.peak_mb) == 3 and 0.0 < rec.peak_mb[0] <= rec.peak_mb[1] <= rec.peak_mb[2]

    table = run_experiment(cfg)
    assert list(table.records) == [4, 8]
    assert all(isinstance(r, lab.LevelRecord) for r in table.records.values())


def test_a_failed_level_keeps_its_record():
    # 12 WG k=1 interior dofs at n=1, so 13 pairs fail that level before its factor
    table = run_experiment(ExperimentConfig(levels=(1, 2), num_eigs=13))
    assert list(table.failures) == [1]
    rec = table.records[1]
    assert rec.report.iterations == 0 and rec.report.pairs == ()
    assert rec.mesh_s > 0.0 and rec.assemble_s > 0.0 and len(rec.peak_mb) == 3
    assert table.records[2].report.iterations > 0
