import dataclasses

import numpy as np
import pytest
import scipy.linalg

from elastica import ExperimentConfig, RateTable
from elastica import cli, lab
from elastica.errors import SolverFailure


def run_cli(args):
    return cli.main(["run"] + args)


def test_run_writes_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = run_cli(
        [
            "--experiment", "square", "--method", "wg", "--order", "1",
            "--nu", "0.3", "--levels", "2,4", "--eigs", "2",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    levels, omegas, _ = lab.parse_csv(out)
    assert levels == (2, 4)
    assert omegas.shape == (2, 2)
    assert np.all(omegas > 0)


def test_run_markdown_and_defaults(tmp_path):
    out = tmp_path / "table.md"
    code = run_cli(
        ["--levels", "2,4", "--eigs", "1", "--format", "md", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("| h | 1/2 | 1/4 | Order |")


def test_config_file_merging(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    out = tmp_path / "t.csv"
    cfgfile.write_text(
        "experiment = square\nmethod = cr\nlevels = 2,4\neigs = 3\n"
        f"out = {out}\n# comment line\n"
    )
    # explicit flag overrides the file value
    code = cli.main(["run", "--config", str(cfgfile), "--eigs", "2"])
    assert code == 0
    _, omegas, _ = lab.parse_csv(out)
    assert omegas.shape[0] == 2


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("wibble = 3\n")
    assert cli.main(["run", "--config", str(cfgfile)]) == 4
    err = capsys.readouterr().err
    assert err == "elastica: invalid configuration: unknown config key 'wibble'\n"


def test_locking_sweep_output(tmp_path, capsys):
    # one table per distinct nu, at --out with -nu<nu> before the suffix
    out = tmp_path / "sweep.csv"
    code = run_cli(
        [
            "--levels", "2,4", "--eigs", "1",
            "--nus", "0.3,0.35,0.3", "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "max relative eigenfrequency deviation" in captured
    paths = [tmp_path / "sweep-nu0.3.csv", tmp_path / "sweep-nu0.35.csv"]
    assert [ln for ln in captured.splitlines() if ln.startswith("wrote")] == [
        f"wrote {path}" for path in paths
    ]
    assert sorted(tmp_path.iterdir()) == paths
    for nu, path in zip((0.3, 0.35), paths):
        want = lab.run_experiment(ExperimentConfig(levels=(2, 4), num_eigs=1, nu=nu))
        _, omegas, _ = lab.parse_csv(path)
        assert np.array_equal(omegas, want.omegas)


def test_locking_sweep_solves_a_repeated_nu_once(monkeypatch):
    calls = []
    run = lab.run_experiment

    def counting(cfg):
        calls.append(cfg.nu)
        return run(cfg)

    monkeypatch.setattr(lab, "run_experiment", counting)
    cfg = ExperimentConfig(levels=(2, 4), num_eigs=1)
    sweep = lab.locking_sweep(cfg, [0.3, 0.35, 0.3])
    assert calls == [0.3, 0.35]
    assert sweep["nus"] == [0.3, 0.35, 0.3]
    assert list(sweep["tables"]) == [0.3, 0.35]


def test_sweep_failure_at_a_later_nu_fails_the_run(tmp_path, monkeypatch, capsys):
    # every nu's table is written; a failure at any nu exits 2
    solve = lab.solve_level

    def failing(cfg, n):
        if cfg.nu == 0.35 and n == 4:
            raise SolverFailure("ARPACK failed on B's support: injected")
        return solve(cfg, n)

    monkeypatch.setattr(lab, "solve_level", failing)
    out = tmp_path / "sweep.csv"
    code = run_cli(["--levels", "2,4", "--eigs", "1", "--nus", "0.3,0.35", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "solver failure at level 4 (nu=0.35): ARPACK failed on B's support: injected\n"
    _, omegas, _ = lab.parse_csv(tmp_path / "sweep-nu0.3.csv")
    assert np.all(np.isfinite(omegas))
    _, omegas, _ = lab.parse_csv(tmp_path / "sweep-nu0.35.csv")
    assert np.isfinite(omegas[:, 0]).all() and np.isnan(omegas[:, 1]).all()
    assert not out.exists()


def test_sweep_check_lower_runs_on_every_nu(tmp_path, monkeypatch, capsys):
    # gamma_1 drops from n=2 to n=4 at the second nu only
    solve = lab.solve_level

    def dropping(cfg, n):
        res = solve(cfg, n)
        if cfg.nu == 0.35 and n == 4:
            res = dataclasses.replace(res, eigenvalues=0.5 * res.eigenvalues)
        return res

    monkeypatch.setattr(lab, "solve_level", dropping)
    args = ["--levels", "2,4", "--eigs", "1", "--out", str(tmp_path / "s.csv")]
    assert run_cli(args + ["--nus", "0.3,0.4", "--check-lower"]) == 0
    assert run_cli(args + ["--nus", "0.3,0.35", "--check-lower"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("lower-bound check failed (nu=0.35): gamma_1 drops by ")
    assert err.count("\n") == 1


def test_check_lower_failure_exit_code(tmp_path):
    # CR on the clamped square converges from above: the gamma ladder is
    # decreasing and the lower-bound check must fail
    out = tmp_path / "cr.csv"
    code = run_cli(
        [
            "--experiment", "square", "--method", "cr",
            "--levels", "8,16", "--eigs", "1", "--check-lower",
            "--out", str(out),
        ]
    )
    assert code == 3
    assert out.exists()  # the table is still written


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    cfg = ExperimentConfig(levels=(2, 4), num_eigs=1)
    broken = RateTable(
        config=cfg,
        gammas=np.full((1, 2), np.nan),
        failures={2: "no convergence", 4: "no convergence"},
    )
    monkeypatch.setattr(cli.lab, "run_experiment", lambda c: broken)
    code = run_cli(["--levels", "2,4", "--out", str(tmp_path / "f.csv")])
    assert code == 2


def test_unconverged_level_fails_the_run(tmp_path, monkeypatch, capsys):
    # Rayleigh-Ritz values off by 3.5e-6 relative fail the eigensolver's own
    # residual check: the level's column stays NaN, the failure names the
    # worst residual and the run exits 2
    eigh = scipy.linalg.eigh

    def inaccurate(*args, **kwargs):
        vals, W = eigh(*args, **kwargs)
        return vals * (1.0 + 3.5e-6), W

    monkeypatch.setattr(scipy.linalg, "eigh", inaccurate)
    table = lab.run_experiment(ExperimentConfig(levels=(2, 4), num_eigs=1))
    assert sorted(table.failures) == [2, 4]
    assert "not converged" in table.failures[4]
    assert "3.500e-06" in table.failures[4]
    assert np.all(np.isnan(table.gammas))
    out = tmp_path / "u.csv"
    code = run_cli(["--levels", "2,4", "--eigs", "1", "--out", str(out)])
    assert code == 2
    assert "solver failure at level 4: eigenpairs not converged" in capsys.readouterr().err
    _, omegas, _ = lab.parse_csv(out)
    assert np.all(np.isnan(omegas))  # no unchecked eigenvalue is written


def test_check_lower_names_the_drop(tmp_path, capsys):
    # CR on the clamped square converges from above: gamma_1 drops
    code = run_cli(
        [
            "--experiment", "square", "--method", "cr",
            "--levels", "8,16", "--eigs", "1", "--check-lower",
            "--out", str(tmp_path / "cr.csv"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("lower-bound check failed: gamma_1 drops by ")
    assert err.rstrip().endswith("from n=8 to n=16")


def test_check_lower_names_the_richardson_excess(tmp_path, monkeypatch, capsys):
    # monotone, but accelerating: the Richardson limit 0.5 lies below the
    # finest value 2.5, so the ladder cannot be a lower-bound ladder
    cfg = ExperimentConfig(levels=(2, 4, 8), num_eigs=1)
    gammas = np.array([[1.0, 1.5, 2.5]])
    table = RateTable(config=cfg, gammas=gammas)
    assert lab.richardson_limit(1.0, 1.5, 2.5) == pytest.approx(0.5)
    monkeypatch.setattr(cli.lab, "run_experiment", lambda c: table)
    code = run_cli(["--levels", "2,4,8", "--check-lower", "--out", str(tmp_path / "r.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == (
        "lower-bound check failed: gamma_1 exceeds its Richardson limit 0.5 by 2.000e+00\n"
    )
    assert not lab.check_lower_bounds(table)


@pytest.mark.parametrize(
    "bad, cfg_text",
    [
        (["--levels", "3,6"], None),
        (["--nu", "0.5"], None),
        (["--eigs", "0"], None),
        (["--order", "0"], None),
        (["--levels", "2,4", "--nus", "0.3,0.5"], None),
        (["--levels", "2,4", "--nus", "0.3"], None),
        (["--levels", "2,4", "--eigs", "1", "--nus", "0.3,0.3"], None),
        (["--levels", "2,4"], "experiment = foo\n"),
        (["--levels", "2,4"], "format = xls\n"),
        (["--levels", "2,4"], "check_lower = ture\n"),
        (["--levels", "2,4", "--config", "missing.cfg"], None),
        (["--levels", "2,4", "--method", "fem"], None),
        (["--levels", "2,4", "--order", "abc"], None),
        (["--levels", "2,x"], None),
        (["--levels", "2,4", "--bogus", "1"], None),
        (["--levels", "2,4", "--delta", "-1"], None),
        (["--levels", ""], None),
        (["--levels", "0,2"], None),
        (["--levels", "2,4", "--E", "inf"], None),
        (["--levels", "2,4", "--E", "nan"], None),
        (["--levels", "2,4", "--delta", "inf"], None),
        (["--levels", "2,4", "--delta", "nan"], None),
        (["--levels", "2", "--order", "15"], None),
        (["--levels", "2", "--out="], None),
        (["--levels", "2"], "out =\n"),
        (["--levels", "2,4", "--eigs", "1", "--E", "1e308"], None),
        (["--levels", "2,4", "--eigs", "1", "--E", "5e-324"], None),
        (["--levels", "2,,4"], None),
        (["--levels", "2,4,"], None),
        (["--levels", ",2,4"], None),
        (["--levels", "2,4", "--nus", "0.3,,0.4"], None),
    ],
    ids=["levels", "nu", "eigs", "order", "nus", "single-nu", "repeated-nu", "cfg-experiment",
         "cfg-format", "cfg-check-lower", "missing-cfg", "flag-method", "flag-order",
         "flag-levels", "flag-unknown", "delta", "no-levels", "zero-level", "E-inf",
         "E-nan", "delta-inf", "delta-nan", "order-15", "empty-out", "cfg-empty-out",
         "E-overflow", "E-underflow", "levels-empty-item", "levels-trailing-comma",
         "levels-leading-comma", "nus-empty-item"],
)
def test_invalid_config_exit_code(tmp_path, capsys, monkeypatch, bad, cfg_text):
    def never(cfg, n):
        raise AssertionError("solve_level called for an invalid configuration")

    monkeypatch.setattr(lab, "solve_level", never)
    monkeypatch.chdir(tmp_path)
    if cfg_text is not None:
        (tmp_path / "run.cfg").write_text(cfg_text)
        bad = bad + ["--config", "run.cfg"]
    out = tmp_path / "t.csv"
    if "--out=" not in bad and "out =" not in (cfg_text or ""):
        bad = bad + ["--out", str(out)]
    code = run_cli(bad)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("elastica: invalid configuration:")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()  # nothing was solved or written


def test_list_items_may_carry_spaces(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(["--levels", "2, 4", "--eigs", "1", "--out", str(out)]) == 0
    assert lab.parse_csv(out)[0] == (2, 4)


@pytest.mark.parametrize("where", ["directory", "missing-parent", "empty", "sweep-directory"])
def test_unwritable_out_fails_before_any_solve(tmp_path, monkeypatch, capsys, where):
    def never(cfg, n):
        raise AssertionError("solve_level called for an unwritable --out")

    monkeypatch.setattr(lab, "solve_level", never)
    out = {"directory": tmp_path, "missing-parent": tmp_path / "nonexistent" / "t.csv",
           "empty": "", "sweep-directory": tmp_path / "t.csv"}[where]
    sweep = []
    if where == "sweep-directory":  # the second nu's table would go to a directory
        (tmp_path / "t-nu0.35.csv").mkdir()
        sweep = ["--nus", "0.3,0.35"]
    code = run_cli(["--levels", "2,4", "--eigs", "1", "--out", str(out)] + sweep)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("elastica: invalid configuration: out:")
    assert err.count("\n") == 1  # one line, no traceback


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_tiny_modulus_residuals_fail_the_run(tmp_path, capsys):
    # at E = 1e-16 the rounding floor of the residual bound lies above 1; the
    # cap on that bound still rejects the level's residuals of order 1
    out = tmp_path / "tiny.csv"
    code = run_cli(["--levels", "2,4", "--eigs", "1", "--E", "1e-16", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    for n in (2, 4):
        assert f"solver failure at level {n}: eigenpairs not converged: worst residual" in err


@pytest.mark.parametrize(
    "cfg_text, flags, code",
    [
        ("check-lower = yes\n", [], 3),
        ("check_lower = no\n", ["--check-lower"], 3),
        ("check_lower = no\n", [], 0),
        ("check-lower = yes\n", ["--check-lower=no"], 0),
    ],
    ids=["dashed-key", "bare-flag-wins", "file-off", "flag-value-wins"],
)
def test_config_file_check_lower(tmp_path, monkeypatch, cfg_text, flags, code):
    # gamma_1 drops from n=2 to n=4: the run exits 3 exactly when the check is on
    table = RateTable(config=ExperimentConfig(levels=(2, 4), num_eigs=1),
                      gammas=np.array([[2.0, 1.0]]))
    monkeypatch.setattr(cli.lab, "run_experiment", lambda c: table)
    (tmp_path / "run.cfg").write_text(cfg_text)
    args = ["--config", str(tmp_path / "run.cfg"), "--levels", "2,4"]
    assert run_cli(args + flags + ["--out", str(tmp_path / "t.csv")]) == code


def test_config_file_list_items_may_carry_spaces(tmp_path):
    out = tmp_path / "t.csv"
    (tmp_path / "run.cfg").write_text(f"levels = 2, 4\neigs = 1\nout = {out}\n")
    assert run_cli(["--config", str(tmp_path / "run.cfg")]) == 0
    assert lab.parse_csv(out)[0] == (2, 4)


@pytest.mark.parametrize(
    "key, flag, value",
    [
        ("order", "--order", "abc"),
        ("levels", "--levels", "2,,4"),
        ("nus", "--nus", "0.3,,0.4"),
        ("experiment", "--experiment", "foo"),
        ("check_lower", "--check-lower", "ture"),
        ("E", "--E", "x"),
    ],
)
def test_bad_value_reads_alike_in_file_and_flag(tmp_path, capsys, monkeypatch, key, flag, value):
    def never(cfg, n):
        raise AssertionError("solve_level called for an invalid configuration")

    monkeypatch.setattr(lab, "solve_level", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
    errs = []
    for args in (["--config", "run.cfg"], [flag, value]):
        assert run_cli(args + ["--out", "t.csv"]) == 4
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"elastica: invalid configuration: argument {flag}: ")
    assert repr(value) in errs[0] and "<lambda>" not in errs[0]
    assert errs[0].count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("args", [["--exp", "lshape"], ["--lev", "2,4"], ["--check"]],
                         ids=["exp", "lev", "check"])
def test_abbreviated_flags_are_unknown_like_config_keys(tmp_path, capsys, monkeypatch, args):
    def never(cfg, n):
        raise AssertionError("solve_level called for an abbreviated flag")

    monkeypatch.setattr(lab, "solve_level", never)
    monkeypatch.chdir(tmp_path)
    key = args[0].removeprefix("--")
    (tmp_path / "run.cfg").write_text(f"{key} = {args[1] if len(args) > 1 else 'yes'}\n")
    errs = []
    for given in (args, ["--config", "run.cfg"]):
        assert run_cli(["--levels", "2,4", "--eigs", "1"] + given + ["--out", "t.csv"]) == 4
        errs.append(capsys.readouterr().err)
    assert errs[0] == f"elastica: invalid configuration: unrecognized arguments: {' '.join(args)}\n"
    assert errs[1] == f"elastica: invalid configuration: unknown config key {key!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]  # nothing written
