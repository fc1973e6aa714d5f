"""Command line front end: ``elastica run ...``.

Exit codes: 0 success, 2 any solver failure during the run, including
unconverged eigenpairs (the failed level's column is NaN), 3 failed
lower-bound check (--check-lower; the failed condition is named), 4 invalid
configuration, including an unknown or unparsable ``run`` flag and an
unreadable or malformed --config file (nothing is run).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import lab


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return value in ("1", "true", "yes")


_CFG_KEYS = {
    "experiment": str,
    "method": str,
    "order": int,
    "nu": float,
    "E": float,
    "delta": float,
    "levels": str,
    "eigs": int,
    "format": str,
    "out": str,
    "nus": str,
    "check_lower": _parse_bool,
}

_FORMATS = ("csv", "md")


def _parse_levels(text: str):
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def _load_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CFG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = _CFG_KEYS[key](value.strip())
    return out


class _RunParser(argparse.ArgumentParser):
    """A bad ``run`` flag is an invalid configuration, not a usage error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastica")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_RunParser)
    run = sub.add_parser("run", help="run a benchmark experiment")
    run.add_argument("--experiment", choices=sorted(lab.EXPERIMENTS))
    run.add_argument("--method", choices=["wg", "cr"])
    run.add_argument("--order", type=int, help="WG polynomial order k")
    run.add_argument("--nu", type=float, help="Poisson ratio")
    run.add_argument("--E", type=float, help="Young's modulus")
    run.add_argument("--delta", type=float, help="stabilization exponent")
    run.add_argument("--levels", type=str, help="comma-separated list of n (h=1/n)")
    run.add_argument("--eigs", type=int, help="number of eigenpairs")
    run.add_argument("--format", choices=_FORMATS)
    run.add_argument("--out", type=str, help="output file path")
    run.add_argument("--check-lower", action="store_true", default=None,
                     dest="check_lower",
                     help="fail (exit 3) unless the gamma ladder is monotone and "
                          "below its Richardson limit")
    run.add_argument("--nus", type=str,
                     help="comma-separated Poisson ratios for a locking sweep")
    run.add_argument("--config", type=str, help="key=value config file")
    return parser


# defaults of the run options outside ExperimentConfig, which holds the rest
_DEFAULTS = {
    "experiment": "square",
    "format": "csv",
    "out": "table.csv",
    "check_lower": False,
    "nus": None,
}
# keys that set the ExperimentConfig field of the same name; "eigs" sets num_eigs
_FIELDS = {key: key for key in ("method", "order", "nu", "E", "delta", "levels")}
_FIELDS["eigs"] = "num_eigs"


def _configure(args):
    """Merge defaults, the config file and flags; raise on any invalid value."""
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_load_config_file(args.config))
    for key in _CFG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged["experiment"] not in lab.EXPERIMENTS:
        raise ValueError(f"unknown experiment {merged['experiment']!r}")
    if merged["format"] not in _FORMATS:
        raise ValueError(f"unknown format {merged['format']!r}")
    if "levels" in merged:
        merged["levels"] = _parse_levels(merged["levels"])
    domain, boundary = lab.EXPERIMENTS[merged["experiment"]]
    cfg = lab.ExperimentConfig(
        domain=domain,
        boundary=boundary,
        **{field: merged[key] for key, field in _FIELDS.items() if key in merged},
    )
    nus = [float(tok) for tok in (merged["nus"] or "").split(",") if tok]
    if len(nus) == 1:
        raise ValueError("locking sweep needs at least two Poisson ratios")
    for nu in nus:
        replace(cfg, nu=nu)  # checks each swept Poisson ratio before any solve
    return merged, cfg, nus


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        merged, cfg, nus = _configure(args)
    except (OSError, ValueError) as exc:
        print(f"elastica: invalid configuration: {exc}", file=sys.stderr)
        return 4

    if nus:
        sweep = lab.locking_sweep(cfg, nus)
        table = sweep["tables"][nus[0]]
        dev = sweep["max_rel_deviation"]
        print("max relative eigenfrequency deviation across nu values:")
        for j in range(dev.shape[0]):
            row = "  ".join(f"{d:.3e}" for d in dev[j])
            print(f"  omega_{j + 1}: {row}")
    else:
        table = lab.run_experiment(cfg)

    lab.emit(table, merged["format"], merged["out"])
    print(f"wrote {merged['out']}")
    if table.failures:
        for level, msg in sorted(table.failures.items()):
            print(f"solver failure at level {level}: {msg}", file=sys.stderr)
        return 2
    if merged["check_lower"]:
        reason = lab.lower_bound_violation(table)
        if reason is not None:
            print(f"lower-bound check failed: {reason}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
