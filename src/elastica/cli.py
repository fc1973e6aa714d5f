"""Command line front end: ``elastica run ...``.

Exit codes: 0 success, 2 any solver failure during the run, at any swept nu
(the failed level's column is NaN; the eigensolver decides convergence, and an
--eigs above the number of finite eigenvalues fails its level at once), 3 failed
lower-bound check (--check-lower, on every swept nu; the condition and nu are
named), 4 invalid configuration, including an unknown or unparsable ``run``
flag, an unreadable or malformed --config file and an --out path that cannot
be written (nothing is run).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import lab


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return value in ("1", "true", "yes")


def _one_of(*names):
    def convert(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text

    return convert


def _numbers(kind):
    return lambda text: tuple(kind(tok) for tok in text.replace(" ", "").split(",") if tok)


# run option -> (converter of its text from a flag or the config file, --help)
_KEYS = {
    "experiment": (_one_of(*sorted(lab.EXPERIMENTS)), ", ".join(sorted(lab.EXPERIMENTS))),
    "method": (_one_of("wg", "cr"), "wg or cr"),
    "order": (int, "WG polynomial order k"),
    "nu": (float, "Poisson ratio"),
    "E": (float, "Young's modulus"),
    "delta": (float, "stabilization exponent"),
    "levels": (_numbers(int), "comma-separated list of n (h=1/n)"),
    "eigs": (int, "number of eigenpairs"),
    "format": (_one_of("csv", "md"), "csv or md"),
    "out": (str, "output file path"),
    "nus": (_numbers(float), "comma-separated Poisson ratios; one table each at --out -nu<ratio>"),
    "check_lower": (_parse_bool, "fail (exit 3) unless the gamma ladder is monotone "
                                 "and below its Richardson limit"),
}


def _load_config_file(path) -> dict:
    """key = value lines of a config file, values as text."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = value.strip()
    return out


class _RunParser(argparse.ArgumentParser):
    """A bad ``run`` flag is an invalid configuration, not a usage error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastica")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_RunParser)
    run = sub.add_parser("run", help="run a benchmark experiment")
    for key, (convert, text) in _KEYS.items():
        flag = "--" + key.replace("_", "-")
        if convert is _parse_bool:  # a bare flag switches it on
            run.add_argument(flag, dest=key, action="store_const", const="true", help=text)
        else:
            run.add_argument(flag, dest=key, help=text)
    run.add_argument("--config", help="key=value config file")
    return parser


# defaults of the run options outside ExperimentConfig, which holds the rest
_DEFAULTS = {
    "experiment": "square",
    "format": "csv",
    "out": "table.csv",
    "check_lower": False,
    "nus": (),
}
# keys that set the ExperimentConfig field of the same name; "eigs" sets num_eigs
_FIELDS = {key: key for key in ("method", "order", "nu", "E", "delta", "levels")}
_FIELDS["eigs"] = "num_eigs"


def _configure(args):
    """Merge defaults, the config file and flags; raise on any invalid value."""
    raw = _load_config_file(args.config) if args.config else {}
    raw.update((key, getattr(args, key)) for key in _KEYS if getattr(args, key) is not None)
    merged = dict(_DEFAULTS)
    for key, value in raw.items():
        try:
            merged[key] = _KEYS[key][0](value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    domain, boundary = lab.EXPERIMENTS[merged["experiment"]]
    cfg = lab.ExperimentConfig(
        domain=domain,
        boundary=boundary,
        **{field: merged[key] for key, field in _FIELDS.items() if key in merged},
    )
    nus = merged["nus"]
    if len(nus) == 1:
        raise ValueError("locking sweep needs at least two Poisson ratios")
    for nu in nus:
        replace(cfg, nu=nu)  # checks each swept Poisson ratio before any solve
    out = merged["out"]
    if not out:
        raise ValueError("out: the path is empty")
    root, ext = os.path.splitext(out)
    paths = [f"{root}-nu{nu}{ext}" for nu in dict.fromkeys(nus)] or [out]
    for path in paths:
        if os.path.isdir(path):
            raise ValueError(f"out: {path!r} is a directory")
    if not os.access(os.path.dirname(os.path.abspath(out)), os.W_OK):
        raise ValueError(f"out: the directory of {out!r} is missing or not writable")
    return merged, cfg, nus, paths


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        merged, cfg, nus, paths = _configure(args)
    except (OSError, ValueError) as exc:
        print(f"elastica: invalid configuration: {exc}", file=sys.stderr)
        return 4

    if nus:
        sweep = lab.locking_sweep(cfg, nus)
        # message tag -> table, one per distinct nu, in the order of paths
        tables = {f" (nu={nu})": table for nu, table in sweep["tables"].items()}
        dev = sweep["max_rel_deviation"]
        print("max relative eigenfrequency deviation across nu values:")
        for j in range(dev.shape[0]):
            row = "  ".join(f"{d:.3e}" for d in dev[j])
            print(f"  omega_{j + 1}: {row}")
    else:
        tables = {"": lab.run_experiment(cfg)}

    for path, table in zip(paths, tables.values()):
        lab.emit(table, merged["format"], path)
        print(f"wrote {path}")
    failed = [
        f"solver failure at level {level}{tag}: {msg}"
        for tag, table in tables.items()
        for level, msg in sorted(table.failures.items())
    ]
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 2
    if merged["check_lower"]:
        reasons = {tag: lab.lower_bound_violation(table) for tag, table in tables.items()}
        failed = [f"lower-bound check failed{tag}: {why}" for tag, why in reasons.items() if why]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
