"""Command-line interface.

Subcommands: ``family`` (build or verify one family member), ``inflate``
(build a cycle inflation), ``classify`` (structure verdict for graphs),
``enumerate`` (isomorph-free generation), ``verify`` (theorem campaigns)
and ``check`` (full invariant report per graph).  Graph arguments accept a
graph6 string, a file of graph6 lines, or ``-`` for stdin.

Exit codes: 0 success / verified, 1 counterexample found, 2 usage error or
unreadable input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from clawlab.families import (
    ClaimError,
    FamilyError,
    FamilySpec,
    InflationSpec,
    build_family,
    build_inflation,
    verify_family_claims,
)
from clawlab.graphs import Graph, GraphError, parse_graph6, to_graph6
from clawlab.invariants import invariant_report, is_perfect
from clawlab.patterns import PatternError
from clawlab.structure import StructureVerdict, TheoremViolation, VerdictKind, classify_claw_bull_free
from clawlab.verify import report_emit, verify
from clawlab.enumeration import EnumerationConfig, enumerate_graphs


def _iter_graphs(arg: str):
    """Yield graphs from a graph6 literal, a file of lines, or stdin (-)."""
    if arg != "-" and not os.path.exists(arg):
        yield parse_graph6(arg)
        return
    with contextlib.nullcontext(sys.stdin) if arg == "-" else open(arg) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield parse_graph6(line)


def _verdict_json(verdict: StructureVerdict) -> dict:
    out: dict = {"kind": verdict.kind.value}
    if verdict.kind == VerdictKind.PERFECT:
        out["perfect"] = True
    elif verdict.kind == VerdictKind.ODD_CYCLE_INFLATION:
        out["k"] = verdict.partition.k
        out["parts"] = [list(p) for p in verdict.partition.parts]
        out["sizes"] = list(verdict.partition.sizes)
    else:
        out["violation"] = verdict.violation
        out["witness"] = list(verdict.witness)
    return out


def _check_json(g: Graph) -> dict:
    rep = invariant_report(g)
    verdict = is_perfect(g, "spgt")
    cert = None
    if verdict.certificate is not None:
        cert = {"kind": verdict.certificate.kind, "vertices": list(verdict.certificate.vertices)}
    return {
        "graph6": to_graph6(g),
        "n": g.n,
        "omega": rep.omega,
        "alpha": rep.alpha,
        "chi": rep.chi,
        "max_degree": rep.max_degree,
        "perfect": verdict.perfect,
        "certificate": cert,
    }


def cmd_family(args) -> int:
    spec = FamilySpec(args.family, args.s)
    if args.verify:
        report = verify_family_claims(spec)
        print(
            json.dumps(
                {
                    "family": spec.family,
                    "s": spec.s,
                    "n": report.n,
                    "omega": report.omega,
                    "chi": report.chi,
                    "checks": [{"claim": name, "ok": ok} for name, ok in report.checks],
                },
                indent=2,
            )
        )
        return 0
    g, _ = build_family(spec)
    print(to_graph6(g))
    return 0


def cmd_inflate(args) -> int:
    sizes = tuple(int(tok) for tok in args.sizes.split(","))
    g, _ = build_inflation(InflationSpec(sizes))
    print(to_graph6(g))
    return 0


def cmd_classify(args) -> int:
    for g in _iter_graphs(args.graph):
        print(json.dumps(_verdict_json(classify_claw_bull_free(g))))
    return 0


def cmd_enumerate(args) -> int:
    config = EnumerationConfig(
        max_n=args.max_n,
        connected_only=args.connected,
        free_of=tuple(tok for tok in args.free.split(",") if tok.strip()),
        min_alpha=args.min_alpha,
        exclude_odd_cycles=args.exclude_odd_cycles,
    )
    visit = None
    if args.emit == "graph6":
        visit = lambda g: print(to_graph6(g))  # noqa: E731
    count = enumerate_graphs(config, visit)
    print(count, file=sys.stderr if args.emit == "graph6" else sys.stdout)
    return 0


def cmd_verify(args) -> int:
    report = verify(args.theorem, args.max_n, args.y)
    text = report_emit(report, args.format)
    print(text, end="" if text.endswith("\n") else "\n")  # the CSV table ends in its own newline
    print(
        f"{report.theorem}: examined {report.class_size} graphs up to n={report.max_n}, "
        f"{len(report.counterexamples)} counterexample(s), {report.elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def cmd_check(args) -> int:
    for g in _iter_graphs(args.graph):
        print(json.dumps(_check_json(g)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call (not at
    import) and kept for the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="clawlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="build or verify a counterexample family member")
    p.add_argument("family", choices=["F0", "F1", "F2", "F3", "F4"])
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="verify structural claims instead")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("inflate", help="build a cycle inflation C[n1,...,nk]")
    p.add_argument("--sizes", required=True, help="comma-separated part sizes")
    p.set_defaults(func=cmd_inflate)

    p = sub.add_parser("classify", help="structure verdict for claw/bull-free graphs")
    p.add_argument("graph", help="graph6 string, file of graph6 lines, or -")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="isomorph-free generation")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--free", default="", help="comma-separated pattern tokens")
    p.add_argument("--min-alpha", dest="min_alpha", type=int, default=0)
    p.add_argument("--exclude-odd-cycles", dest="exclude_odd_cycles", action="store_true")
    p.add_argument("--emit", choices=["graph6"], default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem verification campaign")
    p.add_argument("--theorem", required=True)
    p.add_argument("--y", default=None, help="forbidden pattern for T4/T5")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="invariants + perfection report per graph")
    p.add_argument("graph", help="graph6 string, file of graph6 lines, or -")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, PatternError, FamilyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClaimError as exc:
        print(f"claim failed: {exc}", file=sys.stderr)
        return 1
    except TheoremViolation as exc:
        print(f"theorem violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
