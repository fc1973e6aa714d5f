"""Command line front end: ``elastica run ...``.

Exit codes: 0 success, 2 any solver failure during the run, at any swept nu
(the failed level's column is NaN; the eigensolver decides convergence, and an
--eigs above the number of finite eigenvalues fails its level at once), 3 failed
lower-bound check (--check-lower, on every swept nu; the condition and nu are
named), 4 invalid configuration, including an unknown or unparsable ``run``
flag, an unreadable or malformed --config file, a --nus with fewer than two
distinct ratios and an --out path that cannot be written (nothing is run).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import lab


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")
    return value in ("1", "true", "yes")


def _numbers(kind):
    def convert(text: str) -> tuple:
        return tuple(kind(tok) for tok in text.replace(" ", "").split(","))

    convert.__name__ = f"comma-separated {kind.__name__}"  # argparse's "invalid <name> value"
    return convert


class _RunParser(argparse.ArgumentParser):
    """A bad ``run`` flag is an invalid configuration, not a usage error."""

    def error(self, message):
        raise ValueError(message)

    def parse_known_args(self, args=None, namespace=None):
        """Parse the --config file's lines as flags ahead of args, so explicit flags win."""
        parsed, extras = super().parse_known_args(args, namespace)
        if parsed.config is None:
            return parsed, extras
        return super().parse_known_args(self._load_config_file(parsed.config) + args, namespace)

    def _load_config_file(self, path) -> list:
        """One --key=value token per key = value line of a config file."""
        tokens = []
        with open(path) as fh:
            for line in map(str.strip, fh):
                if not line or line.startswith("#"):
                    continue
                key, _, value = map(str.strip, line.partition("="))
                flag = "--" + key.replace("_", "-")
                action = self._option_string_actions.get(flag)
                if action is None or action.dest in ("help", "config"):
                    raise ValueError(f"unknown config key {key!r}")
                tokens.append(f"{flag}={value}")
        return tokens


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastica")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_RunParser)
    # an option left unset is not in the namespace: ExperimentConfig holds its default
    # no abbreviated flags: a config-file key must be a whole option name, so a flag too
    run = sub.add_parser("run", help="run a benchmark experiment",
                         argument_default=argparse.SUPPRESS, allow_abbrev=False)
    run.add_argument("--experiment", choices=sorted(lab.EXPERIMENTS), default="square")
    run.add_argument("--method", choices=("wg", "cr"))
    run.add_argument("--order", type=int, help="WG polynomial order k")
    run.add_argument("--nu", type=float, help="Poisson ratio")
    run.add_argument("--E", type=float, help="Young's modulus")
    run.add_argument("--delta", type=float, help="stabilization exponent")
    run.add_argument("--levels", type=_numbers(int), help="comma-separated list of n (h=1/n)")
    run.add_argument("--eigs", dest="num_eigs", type=int, help="number of eigenpairs")
    run.add_argument("--format", choices=("csv", "md"), default="csv")
    run.add_argument("--out", default="table.csv", help="output file path")
    run.add_argument("--nus", type=_numbers(float), default=(),
                     help="comma-separated Poisson ratios; one table each at --out -nu<ratio>")
    run.add_argument("--check-lower", type=_parse_bool, nargs="?", const=True, default=False,
                     help="fail (exit 3) unless the gamma ladder is monotone "
                          "and below its Richardson limit")
    run.add_argument("--config", default=None, help="key=value config file")
    return parser


def _configure(args):
    """The experiment and the output paths of the parsed options; raise on any invalid value."""
    domain, boundary = lab.EXPERIMENTS[args.experiment]
    fields = {f.name for f in dataclasses.fields(lab.ExperimentConfig)}
    cfg = lab.ExperimentConfig(
        domain=domain, boundary=boundary, **{k: v for k, v in vars(args).items() if k in fields}
    )
    sweep = lab.sweep_configs(cfg, args.nus) if args.nus else {}
    if not args.out:
        raise ValueError("out: the path is empty")
    root, ext = os.path.splitext(args.out)
    paths = [f"{root}-nu{nu}{ext}" for nu in sweep] or [args.out]
    for path in paths:
        if os.path.isdir(path):
            raise ValueError(f"out: {path!r} is a directory")
    if not os.access(os.path.dirname(os.path.abspath(args.out)), os.W_OK):
        raise ValueError(f"out: the directory of {args.out!r} is missing or not writable")
    return cfg, paths


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        cfg, paths = _configure(args)
    except (OSError, ValueError) as exc:
        print(f"elastica: invalid configuration: {exc}", file=sys.stderr)
        return 4

    if args.nus:
        sweep = lab.locking_sweep(cfg, args.nus)
        # message tag -> table, one per distinct nu, in the order of paths
        tables = {f" (nu={nu})": table for nu, table in sweep["tables"].items()}
        print("max relative eigenfrequency deviation across nu values:")
        for j, row in enumerate(sweep["max_rel_deviation"], 1):
            print(f"  omega_{j}: " + "  ".join(f"{d:.3e}" for d in row))
    else:
        tables = {"": lab.run_experiment(cfg)}

    for path, table in zip(paths, tables.values()):
        lab.emit(table, args.format, path)
        print(f"wrote {path}")
    failed = [
        f"solver failure at level {level}{tag}: {msg}"
        for tag, table in tables.items()
        for level, msg in sorted(table.failures.items())
    ]
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 2
    if args.check_lower:
        reasons = {tag: lab.lower_bound_violation(table) for tag, table in tables.items()}
        failed = [f"lower-bound check failed{tag}: {why}" for tag, why in reasons.items() if why]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
