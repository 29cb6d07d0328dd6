"""Command line interface.

Results go to standard out, diagnostics to standard error.  Exit status:
0 on success, 1 when a computation is refused or fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bounds, report, search
from .search import ComputationRefused, MultiplicityOverflow, OneEndpoint, TwoEndpoints


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``, 0 or 1."""
    kind = ("non-negative", "positive")[low]

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value

    return parse


def _decimal_arg(text: str) -> str:
    try:
        bounds._threshold_parts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _add_endpoint_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--endpoint", type=_int_at_least(0), metavar="A",
                       help="count only permutations starting at label A")
    group.add_argument("--endpoints", metavar="A,B",
                       help="count only permutations starting at A and ending at B")


def _parse_constraint(args, n: int, parser: argparse.ArgumentParser):
    flag, ends = "--endpoint", ()
    if args.endpoint is not None:
        ends = (args.endpoint,)
    elif args.endpoints is not None:
        flag, spec = "--endpoints", args.endpoints
        parts = spec.split(",")
        if len(parts) != 2:
            parser.error(f"argument --endpoints: expected 'A,B', got {spec!r}")
        try:
            ends = (int(parts[0]), int(parts[1]))
        except ValueError:
            parser.error(f"argument --endpoints: expected two integers, got {spec!r}")
    constraint = search._constraint(ends)
    try:
        search._check_constraint(n, constraint)
    except ValueError as exc:
        parser.error(f"argument {flag}: {exc}")
    return constraint


def _load_resume_map(ckdir: Path, n: int, constraint):
    """The deepest matching checkpoint in ``ckdir`` that loads, or None."""
    # A damaged file costs its level only: fall back to the next one.
    for found in report.resume_candidates(ckdir, n, constraint):
        try:
            cmap = report.load_checkpoint(found, expect_n=n, expect_constraint=constraint)
        except report.CheckpointError as exc:
            print(f"warning: cannot resume from {found}: {exc}", file=sys.stderr)
            continue
        print(f"resuming from {found} (level {cmap.level})", file=sys.stderr)
        return cmap
    print("no matching checkpoint found, starting fresh", file=sys.stderr)
    return None


def _cmd_count(args, parser) -> int:
    n = args.n
    constraint = _parse_constraint(args, n, parser)
    if args.resume and args.checkpoint_dir is None:
        parser.error("argument --resume: requires --checkpoint-dir")
    if args.stats and args.format != "plain":
        # JSON output carries the levels already; CSV has no room for them.
        parser.error(f"argument --stats: not allowed with --format {args.format}")

    ckdir = None
    on_level = None
    if args.checkpoint_dir is not None:
        ckdir = Path(args.checkpoint_dir)
        ckdir.mkdir(parents=True, exist_ok=True)

        def on_level(cmap, _dir=ckdir, _c=constraint):
            name = report.checkpoint_filename(cmap.n, _c, cmap.level)
            report.save_checkpoint(cmap, _dir / name, _c)

    # The resumed map goes straight into count, which frees it once it has
    # been expanded; a local here would hold it to the end of the run.
    result = search.count(
        n,
        constraint,
        initial=_load_resume_map(ckdir, n, constraint) if args.resume else None,
        on_level=on_level,
    )
    if args.format == "plain":
        if args.stats:
            for s in result.levels:
                print(f"level {s.level:>3}  classes {s.class_count:>9}  nodes {s.node_sum}"
                      f"  seconds {s.wall_time:.3f}")
            print(f"peak classes: {max(s.class_count for s in result.levels)}",
                  file=sys.stderr)
        print(result.count)
    elif args.format == "csv":
        print("n,count")
        print(f"{n},{result.count}")
    else:
        print(json.dumps(report.count_result_json(result)))
    return 0


def _cmd_table(args, parser) -> int:
    if args.to_n < args.from_n:
        parser.error("argument --to: must be >= --from")
    rows = report.build_table(args.from_n, args.to_n, budget_mb=args.budget_mb)
    print(report.format_table(rows, args.format))
    return 0


def _cmd_ratios(args, parser) -> int:
    if args.to_n < args.from_n + 1:
        parser.error("argument --to: ratios need at least --from + 1")
    print(report.format_ratios(report.build_ratios(args.from_n, args.to_n)))
    return 0


def _cmd_enumerate(args, parser) -> int:
    n = args.n
    constraint = _parse_constraint(args, n, parser)
    result = search.enumerate_graceful(n, constraint, limit=args.limit)
    for perm in result.permutations:
        print(perm)
    if result.truncated:
        print(f"output truncated at {args.limit} permutations", file=sys.stderr)
    return 0


def _cmd_bound(args, parser) -> int:
    if args.j >= args.m:
        parser.error(f"argument --j: must be below --m, got j={args.j}, m={args.m}")
    result = bounds.gamma(args.m, args.j)
    print(f"count = {result.count}")
    print(f"gamma = {result.gamma:.4f}")
    if result.zero_count:
        print("no such permutations exist (count = 0)", file=sys.stderr)
    if args.threshold is not None:
        ok = bounds.certify_bound(result.count, 2 * args.m, args.threshold)
        print(f"certified: {'true' if ok else 'false'}")
    return 0


def _cmd_witness(args, parser) -> int:
    if args.j >= args.m:
        parser.error(f"argument --j: must be below --m, got j={args.j}, m={args.m}")
    if args.j > args.r - 1:
        parser.error(f"argument --j: label {args.j} needs --r of at least {args.j + 1}")
    perm = bounds.build_witness(args.m, args.j, args.r, args.iterations)
    if perm[0] != args.j:
        print("internal error: witness does not start at j", file=sys.stderr)
        return 1
    print(perm)
    print(f"{len(perm)} labels, graceful, left endpoint {perm[0]}", file=sys.stderr)
    return 0


def _cmd_verify(args, parser) -> int:
    max_n = args.max_n
    if max_n > search.BRUTE_FORCE_LIMIT:
        raise ComputationRefused(
            f"verify needs the brute-force oracle, limited to n <= {search.BRUTE_FORCE_LIMIT}"
        )
    failures = 0
    for n in range(1, max_n + 1):
        constraints = [None]
        constraints += [OneEndpoint(a) for a in range(n)]
        constraints += [TwoEndpoints(a, b) for a in range(n) for b in range(n)]
        for c in constraints:
            bf = search.brute_force_count(n, c)
            df = search.dfs_count(n, c)
            cn = search.count(n, c).count
            if not bf == df == cn:
                failures += 1
                print(
                    f"disagreement at n={n}, {c!r}: brute={bf} dfs={df} bfs={cn}",
                    file=sys.stderr,
                )
        print(f"n={n}: ok", file=sys.stderr)
    if failures:
        print(f"{failures} disagreements found", file=sys.stderr)
        return 1
    print("all oracles agree")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graceful",
        description="Exact counting and enumeration of graceful permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count graceful permutations")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of labels")
    _add_endpoint_flags(p)
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--stats", action="store_true",
                   help="print per-level statistics, and the peak class count on stderr "
                        "(plain format only)")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="write a checkpoint after every level")
    p.add_argument("--resume", action="store_true",
                   help="resume from the deepest matching checkpoint")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="G(n) table over a range")
    p.add_argument("--from", dest="from_n", type=_int_at_least(1), required=True)
    p.add_argument("--to", dest="to_n", type=_int_at_least(1), required=True)
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--budget-mb", type=_int_at_least(1), default=report.DEFAULT_BUDGET_MB,
                   help="refuse table entries estimated to exceed this memory budget")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("ratios", help="growth ratios G(n+1)/G(n)")
    p.add_argument("--from", dest="from_n", type=_int_at_least(1), required=True)
    p.add_argument("--to", dest="to_n", type=_int_at_least(1), required=True)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("enumerate", help="list graceful permutations")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    _add_endpoint_flags(p)
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   help="stop after this many permutations")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bound", help="gamma growth base from a constrained count")
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--j", type=_int_at_least(0), required=True)
    p.add_argument("--threshold", type=_decimal_arg, default=None, metavar="X.YY",
                   help="certify that gamma strictly exceeds this decimal")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("witness", help="build a long graceful permutation by gluing")
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--j", type=_int_at_least(0), required=True)
    p.add_argument("--r", type=_int_at_least(1), required=True)
    p.add_argument("--iterations", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="cross-check all three counting routes")
    p.add_argument("--max-n", dest="max_n", type=_int_at_least(1), required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except ComputationRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (report.CheckpointError, MultiplicityOverflow, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
