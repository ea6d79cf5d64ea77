"""Command-line interface.

Subcommands: analyze, examples, sweep, audit, subspace.  Exit codes: 0 on
success, 1 on validation failure (including usage errors, which also print
help), 2 on internal error.  The SUPENT_SEED environment variable supplies
the audit seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import bounds, harness
from .errors import SupentError
from .harness import DEFAULT_SEED
from .states import BipartiteState

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_help(sys.stderr)
        raise _UsageError(message)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex number {text!r}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise argparse.ArgumentTypeError(f"complex number {text!r} is not finite")
    return complex(re, im)


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc
    if not dims:
        raise argparse.ArgumentTypeError("dimension list is empty")
    return dims


def _load_state(path: str) -> BipartiteState:
    with open(path, "r", encoding="utf-8") as handle:
        return harness.parse_state_file(handle.read())


def _build_parser() -> _Parser:
    parser = _Parser(prog="supent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser(
        "analyze", help="certify one superposition problem from state files"
    )
    analyze.add_argument("--psi", required=True, help="state file for psi")
    analyze.add_argument("--phi", required=True, help="state file for phi")
    analyze.add_argument("--alpha", required=True, type=_parse_complex, metavar="RE[,IM]")
    analyze.add_argument("--beta", required=True, type=_parse_complex, metavar="RE[,IM]")
    analyze.add_argument("--json", action="store_true", help="emit the report as JSON")
    analyze.set_defaults(func=_cmd_analyze)

    examples = sub.add_parser(
        "examples", help="recompute the built-in reference examples"
    )
    examples.set_defaults(func=_cmd_examples)

    sweep = sub.add_parser("sweep", help="dimension sweep over a diagonal state family")
    sweep.add_argument(
        "--family", required=True, choices=("example3", "example4")
    )
    sweep.add_argument("--dims", required=True, type=_parse_dims, metavar="D1,D2,...")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=_cmd_sweep)

    audit = sub.add_parser("audit", help="random ordering audit of all bounds")
    audit.add_argument("--trials", required=True, type=int)
    audit.add_argument("--max-dim", required=True, type=int)
    audit.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default: SUPENT_SEED env var, else {DEFAULT_SEED})",
    )
    audit.set_defaults(func=_cmd_audit)

    subspace = sub.add_parser(
        "subspace", help="lower bound on the least entanglement in span{psi, phi}"
    )
    subspace.add_argument("--psi", required=True)
    subspace.add_argument("--phi", required=True)
    subspace.add_argument("--grid", required=True, type=int)
    subspace.set_defaults(func=_cmd_subspace)

    return parser


def _cmd_analyze(args) -> int:
    psi = _load_state(args.psi)
    phi = _load_state(args.phi)
    report = bounds.certify(psi, phi, args.alpha, args.beta)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
    else:
        for name, value in dataclasses.asdict(report).items():
            if isinstance(value, float):
                print(f"{name:24s} {value:.12g}")
            else:
                print(f"{name:24s} {value}")
    return 0


def _cmd_examples(args) -> int:
    rows = harness.run_examples()
    header = f"{'case':18s} {'quantity':58s} {'computed':>16s} {'expected':>16s} {'status':>7s}"
    print(header)
    print("-" * len(header))
    n_pass = n_fail = n_info = 0
    for row in rows:
        expected = f"{row.expected:.10g}" if row.expected is not None else "-"
        if row.passed is None:
            status, n_info = "info", n_info + 1
        elif row.passed:
            status, n_pass = "pass", n_pass + 1
        else:
            status, n_fail = "fail", n_fail + 1
        print(
            f"{row.case:18s} {row.quantity:58s} {row.computed:16.10g} {expected:>16s} {status:>7s}"
        )
        if row.note:
            print(f"{'':18s}   note: {row.note}")
    print(f"\n{n_pass} passed, {n_fail} failed, {n_info} informational")
    return 0


def _cmd_sweep(args) -> int:
    records = harness.dimension_sweep(args.dims, args.family)
    csv_text = harness.sweep_csv(records)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(csv_text)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_audit(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("SUPENT_SEED")
        try:
            seed = int(env) if env is not None else DEFAULT_SEED
        except ValueError:
            print(f"error: SUPENT_SEED={env!r} is not an integer", file=sys.stderr)
            return 1
    summary = harness.random_audit(args.trials, args.max_dim, seed)
    print(json.dumps(summary.to_dict(), indent=2))
    return 0 if summary.violations == 0 else 1


def _cmd_subspace(args) -> int:
    psi = _load_state(args.psi)
    phi = _load_state(args.phi)
    value = bounds.subspace_lower(psi, phi, args.grid)
    print(f"subspace_lower {value:.12g}")
    return 0


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SupentError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
