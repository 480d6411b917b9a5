"""Command-line interface.

Exit codes: 0 success, 1 usage, input or parse error, 2 infeasible (a
certificate or a failed verification), 3 capacity bound exceeded.
All JSON payloads carry ``"format": 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import BiSet, compute_atoms
from .errors import ArbopackError, CapacityError, InvariantError, ParseError
from .graph_core import (
    RESERVED_TERMINAL_PREFIX,
    EdgeUse,
    MixedGraph,
    MixedPacking,
    MixedTree,
    parse_mixed_graph,
)
from .orientation import SubpartitionCertificate, orient_atom
from .pipeline import (
    BiSetFamilyCertificate, pack_reachability, solve, validate_mixed_packing, verify_certificate
)

GRAMMAR = """\
input grammar (one declaration per line, '#' starts a comment):

  vertex <id>
  edge <id1> <id2> [<edge-id>]
  arc <tail-id> <head-id> [<arc-id>]
  root <id>

Missing edge-ids/arc-ids are auto-assigned e<n>/a<n> in file order.
Roots are listed in order and define tree indices 1..k.
"""

_DOT_COLORS = (
    "crimson",
    "royalblue",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
    "saddlebrown",
    "deeppink",
)


def _load_graph(path: str) -> tuple[MixedGraph, list[str]]:
    with open(path, encoding="utf-8") as fh:
        return parse_mixed_graph(fh.read())


def _bounds_from(args) -> Bounds:
    if getattr(args, "max_enum_vertices", None) is None:
        return DEFAULT_BOUNDS
    return Bounds(max_enum_vertices=args.max_enum_vertices)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


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


def _vertex_names(value) -> frozenset[str]:
    """A JSON list of vertex names; a string would read as its characters."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list of vertex names")
    for name in value:
        if not isinstance(name, str):
            raise TypeError(f"{name!r} is not a string")
    return frozenset(value)


def _certificate_from_json(payload: dict) -> BiSetFamilyCertificate:
    try:
        body = payload.get("certificate", payload)
        bisets = tuple(
            BiSet(outer=_vertex_names(b["outer"]), inner=_vertex_names(b["inner"]))
            for b in body["bisets"]
        )
        atom_index = int(body["atom_index"]) - 1
        lhs = int(body["lhs"])
        rhs = int(body["rhs"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate JSON: {exc}") from None
    return BiSetFamilyCertificate(atom_index=atom_index, bisets=bisets, lhs=lhs, rhs=rhs)


def _packing_from_json(payload: dict) -> MixedPacking:
    try:
        trees = []
        for t in payload["trees"]:
            arcs = []
            edges = []
            for a in t["arcs"]:
                if a.get("origin", "arc") == "edge":
                    edges.append(EdgeUse(a["id"], a["tail"], a["head"]))
                else:
                    arcs.append(a["id"])
            # the validator hashes ids and endpoints
            for name in (*arcs, *(x for use in edges for x in (use.id, use.tail, use.head))):
                if not isinstance(name, str):
                    raise TypeError(f"{name!r} is not a string")
            trees.append(
                MixedTree(
                    root_index=int(t["root_index"]) - 1,
                    root=t["root"],
                    arcs=tuple(arcs),
                    edges=tuple(edges),
                )
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed packing JSON: {exc}") from None
    return MixedPacking(tuple(trees))


def _cmd_solve(args) -> int:
    g, roots = _load_graph(args.file)
    bounds = _bounds_from(args)
    result = solve(g, roots, bounds)
    if isinstance(result, MixedPacking):
        _emit(_packing_json_full(g, result, roots, args.seed))
        return 0
    _emit(_certificate_json(g, result, args.seed))
    return 2


def _cmd_check(args) -> int:
    g, roots = _load_graph(args.file)
    with open(args.packing, encoding="utf-8") as fh:
        payload = json.load(fh)
    mp = _packing_from_json(payload)
    verdict = validate_mixed_packing(g, roots, mp)
    if verdict:
        print("packing valid")
        return 0
    print(f"packing invalid: {verdict.reason}")
    return 2


def _cmd_atoms(args) -> int:
    g, roots = _load_graph(args.file)
    dec = compute_atoms(g, roots)
    order = g.vertex_index
    if args.format == "json":
        _emit(
            {
                "format": 1,
                "atoms": [
                    {
                        "index": j + 1,
                        "members": sorted(members, key=order.__getitem__),
                        "roots": sorted(i + 1 for i in dec.atom_roots[j]),
                    }
                    for j, members in enumerate(dec.atoms)
                ],
            }
        )
    else:
        for j, members in enumerate(dec.atoms):
            names = " ".join(sorted(members, key=order.__getitem__))
            rs = ",".join(str(i + 1) for i in sorted(dec.atom_roots[j]))
            print(f"atom {j + 1}: {names} roots={rs}")
    return 0


def _part_order(g: MixedGraph) -> dict[str, int]:
    """Vertices in graph order, then each arc's terminal: an auxiliary graph's order."""
    names = g.vertices + tuple(RESERVED_TERMINAL_PREFIX + a.id for a in g.arcs)
    return {v: k for k, v in enumerate(names)}


def _cmd_orient(args) -> int:
    g, roots = _load_graph(args.file)
    bounds = _bounds_from(args)
    dec = compute_atoms(g, roots)
    j = args.atom - 1
    if not 0 <= j < len(dec.atoms):
        raise ParseError(f"atom index {args.atom} out of range 1..{len(dec.atoms)}")
    outcome = orient_atom(g, dec, j, roots, bounds=bounds)
    if isinstance(outcome, SubpartitionCertificate):
        order = _part_order(g)
        _emit(
            {
                "format": 1,
                "atom": args.atom,
                "parts": [sorted(p, key=order.__getitem__) for p in outcome.parts],
                "deficit": outcome.deficit,
            }
        )
        return 2
    if args.format == "json":
        _emit(
            {
                "format": 1,
                "atom": args.atom,
                "orientation": [
                    {"id": eid, "tail": t, "head": h}
                    for eid, (t, h) in sorted(outcome.direction.items())
                ],
            }
        )
    else:
        for eid, (t, h) in sorted(outcome.direction.items()):
            print(f"{eid} {t} {h}")
    return 0


def _cmd_pack_digraph(args) -> int:
    g, roots = _load_graph(args.file)
    if g.edges:
        raise ParseError("pack-digraph accepts arcs only; the input declares edges")
    result = pack_reachability(g, roots)
    if not isinstance(result, MixedPacking):
        order = g.vertex_index
        _emit(
            {
                "format": 1,
                "feasible": False,
                "violated": sorted(result, key=order.__getitem__),
            }
        )
        return 2
    for tree in result.trees:
        print(f"tree {tree.root_index + 1} root {tree.root}")
        for aid in tree.arcs:
            a = g.arc_by_id[aid]
            print(f"{a.id} {a.tail} {a.head}")
    return 0


def _cmd_certify(args) -> int:
    g, roots = _load_graph(args.file)
    with open(args.certificate, encoding="utf-8") as fh:
        payload = json.load(fh)
    cert = _certificate_from_json(payload)
    verdict = verify_certificate(g, roots, cert)
    if verdict:
        print("certificate valid")
        return 0
    print(f"certificate invalid: {verdict.reason}")
    return 2


def _dot_quote(name: str) -> str:
    """A DOT double-quoted string; ids may contain ``"`` and ``\\``."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_export_dot(args) -> int:
    g, roots = _load_graph(args.file)
    tree_of_edge: dict[str, int] = {}
    tree_of_arc: dict[str, int] = {}
    edge_dir: dict[str, tuple[str, str]] = {}
    if args.packing:
        with open(args.packing, encoding="utf-8") as fh:
            mp = _packing_from_json(json.load(fh))
        for tree in mp.trees:
            for aid in tree.arcs:
                tree_of_arc[aid] = tree.root_index
            for use in tree.edges:
                tree_of_edge[use.id] = tree.root_index
                edge_dir[use.id] = (use.tail, use.head)
    lines = ["digraph mixed {"]
    root_set = set(roots)
    for v in g.vertices:
        shape = "doublecircle" if v in root_set else "circle"
        lines.append(f"  {_dot_quote(v)} [shape={shape}];")
    for e in g.edges:
        attrs = ["dir=none", f"label={_dot_quote(e.id)}"]
        u, v = e.u, e.v
        if e.id in tree_of_edge:
            i = tree_of_edge[e.id]
            color = _DOT_COLORS[i % len(_DOT_COLORS)]
            attrs = [f"label={_dot_quote(e.id)}", f"color={color}", "penwidth=2"]
            u, v = edge_dir[e.id]
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)} [{', '.join(attrs)}];")
    for a in g.arcs:
        attrs = [f"label={_dot_quote(a.id)}"]
        if a.id in tree_of_arc:
            i = tree_of_arc[a.id]
            attrs += [f"color={_DOT_COLORS[i % len(_DOT_COLORS)]}", "penwidth=2"]
        lines.append(
            f"  {_dot_quote(a.tail)} -> {_dot_quote(a.head)} [{', '.join(attrs)}];"
        )
    lines.append("}")
    print("\n".join(lines))
    return 0


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
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="validate a packing JSON against an instance")
    p.add_argument("file")
    p.add_argument("packing")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("atoms", help="print the reachability decomposition")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("orient", help="orient one atom's edges, or certify")
    p.add_argument("file")
    p.add_argument("--atom", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_bounds(p)
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("pack-digraph", help="pack an arcs-only instance")
    p.add_argument("file")
    add_bounds(p, "accepted for compatibility and ignored; packing enumerates no sets")
    p.set_defaults(func=_cmd_pack_digraph)

    p = sub.add_parser("certify", help="verify a certificate JSON")
    p.add_argument("file")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("export-dot", help="emit a DOT drawing, trees colored")
    p.add_argument("file")
    p.add_argument("--packing", default=None)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
