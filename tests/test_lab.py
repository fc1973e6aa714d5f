import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastica import ExperimentConfig, RateTable, run_experiment
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


def test_run_experiment_small_and_deterministic():
    cfg = ExperimentConfig(levels=(2, 4), num_eigs=2)
    t1 = run_experiment(cfg)
    t2 = run_experiment(cfg)
    assert np.array_equal(t1.omegas, t2.omegas)
    assert t1.orders is None  # fewer than three levels
    assert not t1.failures
    assert np.all(t1.omegas > 0)
    assert np.allclose(t1.omegas, np.sqrt(t1.gammas))


def test_run_experiment_orders_from_finest_triple():
    cfg = ExperimentConfig(levels=(2, 4, 8), num_eigs=2)
    t = run_experiment(cfg)
    assert t.orders is not None and t.orders.shape == (2,)


def _fabricated(gammas, levels=(4, 8, 16)):
    cfg = ExperimentConfig(levels=levels, num_eigs=max(gammas.shape[0], 1))
    return RateTable(
        config=cfg,
        levels=levels,
        gammas=gammas,
        orders=None,
    )


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
    assert lines[2].rstrip().endswith("| - |")  # no orders available


def test_emit_unknown_format(tmp_path):
    table = _fabricated(np.array([[4.0, 4.1, 4.12]]))
    with pytest.raises(ValueError):
        emit(table, "xml", tmp_path / "t.xml")
