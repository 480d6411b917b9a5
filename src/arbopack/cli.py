"""Command-line interface.

Exit codes: 0 success, 1 usage, input or parse error, 2 infeasible (a
certificate or a failed verification), 3 capacity bound exceeded.
All JSON payloads carry ``"format": 1``.  This module runs ``solve``;
every other subcommand is in ``arbopack.commands``, which is imported
only to run one, so ``arbopack solve`` compiles none of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .bounds import _bounds_from
from .errors import ArbopackError, CapacityError, InvariantError
from .graph_core import MixedGraph, MixedPacking, parse_mixed_graph
from .pipeline import BiSetFamilyCertificate, solve

GRAMMAR = """\
input grammar (one declaration per line, '#' starts a comment):

  vertex <id>
  edge <id1> <id2> [<edge-id>]
  arc <tail-id> <head-id> [<arc-id>]
  root <id>

Missing edge-ids/arc-ids are auto-assigned e<n>/a<n> in file order.
Roots are listed in order and define tree indices 1..k.
"""


def _packing_json_full(
    g: MixedGraph, mp: MixedPacking, roots: Sequence[str], seed: int | None
) -> dict:
    payload = {"format": 1, "feasible": True, "roots": list(roots), "trees": []}
    if seed is not None:
        payload["seed"] = seed
    for tree in mp.trees:
        arcs = []
        for aid in tree.arcs:
            a = g.arc_by_id[aid]
            arcs.append({"id": a.id, "tail": a.tail, "head": a.head, "origin": "arc"})
        for use in tree.edges:
            arcs.append(
                {"id": use.id, "tail": use.tail, "head": use.head, "origin": "edge"}
            )
        payload["trees"].append(
            {"root_index": tree.root_index + 1, "root": tree.root, "arcs": arcs}
        )
    return payload


def _certificate_json(g: MixedGraph, cert: BiSetFamilyCertificate, seed: int | None) -> dict:
    order = g.vertex_index

    def ordered(xs) -> list[str]:
        return sorted(xs, key=order.__getitem__)

    payload = {"format": 1, "feasible": False}
    if seed is not None:
        payload["seed"] = seed
    payload["certificate"] = {
        "atom_index": cert.atom_index + 1,
        "bisets": [
            {"outer": ordered(b.outer), "inner": ordered(b.inner)}
            for b in cert.bisets
        ],
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "deficit": cert.deficit,
    }
    return payload


def _cmd_solve(args, g: MixedGraph, roots: list[str]) -> int:
    result = solve(g, roots, _bounds_from(args.max_enum_vertices))
    if isinstance(result, MixedPacking):
        print(json.dumps(_packing_json_full(g, result, roots, args.seed), indent=2))
        return 0
    print(json.dumps(_certificate_json(g, result, args.seed), indent=2))
    return 2


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own 2 means "infeasible" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arbopack",
        description=(
            "Pack edge/arc-disjoint arborescences spanning each root's "
            "reachable vertices in a mixed graph, or certify that none exist."
        ),
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bounds(p, help=None):
        p.add_argument("--max-enum-vertices", type=int, default=None, help=help)

    p = sub.add_parser("solve", help="solve an instance; JSON packing or certificate")
    p.add_argument("file")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility and ignored; atoms are solved in turn",
    )
    p.add_argument("--seed", type=int, default=None)
    add_bounds(p)

    p = sub.add_parser("check", help="validate a packing JSON against an instance")
    p.add_argument("file")
    p.add_argument("packing")

    p = sub.add_parser("atoms", help="print the reachability decomposition")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("orient", help="orient one atom's edges, or certify")
    p.add_argument("file")
    p.add_argument("--atom", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_bounds(p)

    p = sub.add_parser("pack-digraph", help="pack an arcs-only instance")
    p.add_argument("file")
    add_bounds(p, "accepted for compatibility and ignored; packing enumerates no sets")

    p = sub.add_parser("certify", help="verify a certificate JSON")
    p.add_argument("file")
    p.add_argument("certificate")

    p = sub.add_parser("export-dot", help="emit a DOT drawing, trees colored")
    p.add_argument("file")
    p.add_argument("--packing", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            g, roots = parse_mixed_graph(fh.read())
        if args.command == "solve":
            return _cmd_solve(args, g, roots)
        from .commands import COMMANDS

        return COMMANDS[args.command](args, g, roots)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except InvariantError:
        raise
    except ArbopackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
