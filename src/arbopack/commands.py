"""The command-line subcommands other than ``solve``.

``cli.main`` parses the command line and the instance file, and runs
``solve`` itself; it imports this module only for another subcommand,
and calls its handler from :data:`COMMANDS` with the parsed arguments,
the graph and its roots.  Here are the JSON readers of ``check``,
``certify`` and ``export-dot --packing``, and the writers of the other
outputs.  This module does not import ``arbopack.cli``: under
``python -m arbopack.cli`` that module runs as ``__main__``, and the
import would run it a second time.
"""

from __future__ import annotations

import json

from .bounds import _bounds_from
from .checks import validate_mixed_packing, verify_certificate
from .decomposition import BiSet, compute_atoms
from .errors import ParseError
from .graph_core import RESERVED_TERMINAL_PREFIX, EdgeUse, MixedGraph, MixedPacking, MixedTree
from .orientation import SubpartitionCertificate, orient_atom
from .pipeline import BiSetFamilyCertificate
from .two_stage import pack_reachability

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


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _vertex_names(value) -> frozenset[str]:
    """A JSON list of vertex names; a string would read as its characters."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list of vertex names")
    for name in value:
        if not isinstance(name, str):
            raise TypeError(f"{name!r} is not a string")
    return frozenset(value)


def _json_int(value) -> int:
    """A JSON integer; ``int()`` would also read a float, a string or a bool as one."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _certificate_from_json(payload: dict) -> BiSetFamilyCertificate:
    try:
        body = payload.get("certificate", payload)
        bisets = tuple(
            BiSet(outer=_vertex_names(b["outer"]), inner=_vertex_names(b["inner"]))
            for b in body["bisets"]
        )
        atom_index = _json_int(body["atom_index"]) - 1
        lhs = _json_int(body["lhs"])
        rhs = _json_int(body["rhs"])
        if "deficit" in body and _json_int(body["deficit"]) != rhs - lhs:
            raise ValueError(f"deficit {body['deficit']} is not rhs - lhs = {rhs - lhs}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate JSON: {exc}") from None
    return BiSetFamilyCertificate(atom_index=atom_index, bisets=bisets, lhs=lhs, rhs=rhs)


def _json_str(value) -> str:
    """A JSON string; the validator hashes ids and endpoints."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _packing_from_json(payload: dict, g: MixedGraph) -> MixedPacking:
    """The trees of a packing JSON; an unknown arc id is left to the caller."""
    try:
        trees = []
        for t in payload["trees"]:
            arcs = []
            edges = []
            for a in t["arcs"]:
                origin = a.get("origin", "arc")
                if origin == "edge":
                    edges.append(EdgeUse(*(_json_str(a[k]) for k in ("id", "tail", "head"))))
                    continue
                if origin != "arc":
                    raise ValueError(f"origin {origin!r} is neither 'arc' nor 'edge'")
                arcs.append(_json_str(a["id"]))
                arc = g.arc_by_id.get(arcs[-1])
                ends = arc and (a.get("tail", arc.tail), a.get("head", arc.head))
                if arc and ends != (arc.tail, arc.head):
                    raise ValueError(
                        f"arc {arc.id!r} runs {arc.tail!r} -> {arc.head!r},"
                        f" not {ends[0]!r} -> {ends[1]!r}"
                    )
            trees.append(
                MixedTree(
                    root_index=_json_int(t["root_index"]) - 1,
                    root=t["root"],
                    arcs=tuple(arcs),
                    edges=tuple(edges),
                )
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed packing JSON: {exc}") from None
    return MixedPacking(tuple(trees))


def _load(path: str):
    """The parsed JSON of an answer file."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _verdict(noun: str, verdict) -> int:
    """Print ``<noun> valid`` and return 0, or ``<noun> invalid: <reason>`` and return 2."""
    if verdict:
        print(f"{noun} valid")
        return 0
    print(f"{noun} invalid: {verdict.reason}")
    return 2


def _cmd_check(args, g: MixedGraph, roots: list[str]) -> int:
    mp = _packing_from_json(_load(args.packing), g)
    return _verdict("packing", validate_mixed_packing(g, roots, mp))


def _cmd_atoms(args, g: MixedGraph, roots: list[str]) -> int:
    dec = compute_atoms(g, roots)
    order = g.vertex_index
    rows = [
        (j + 1, sorted(members, key=order.__getitem__), sorted(i + 1 for i in dec.atom_roots[j]))
        for j, members in enumerate(dec.atoms)
    ]
    if args.format == "json":
        atoms = [{"index": j, "members": names, "roots": rs} for j, names, rs in rows]
        _emit({"format": 1, "atoms": atoms})
    else:
        for j, names, rs in rows:
            print(f"atom {j}: {' '.join(names)} roots={','.join(map(str, rs))}")
    return 0


def _part_order(g: MixedGraph) -> dict[str, int]:
    """Vertices in graph order, then each arc's terminal: an auxiliary graph's order."""
    names = g.vertices + tuple(RESERVED_TERMINAL_PREFIX + a.id for a in g.arcs)
    return {v: k for k, v in enumerate(names)}


def _cmd_orient(args, g: MixedGraph, roots: list[str]) -> int:
    bounds = _bounds_from(args.max_enum_vertices)
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


def _cmd_pack_digraph(args, g: MixedGraph, roots: list[str]) -> int:
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


def _cmd_certify(args, g: MixedGraph, roots: list[str]) -> int:
    cert = _certificate_from_json(_load(args.certificate))
    return _verdict("certificate", verify_certificate(g, roots, cert))


def _dot_quote(name: str) -> str:
    """A DOT double-quoted string; ids may contain ``"`` and ``\\``."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_export_dot(args, g: MixedGraph, roots: list[str]) -> int:
    tree_of_edge: dict[str, int] = {}
    tree_of_arc: dict[str, int] = {}
    edge_dir: dict[str, tuple[str, str]] = {}
    if args.packing:
        for tree in _packing_from_json(_load(args.packing), g).trees:
            for aid in tree.arcs:
                if aid not in g.arc_by_id:
                    raise ParseError(f"packing names unknown arc {aid!r}")
                if aid in tree_of_arc:
                    raise ParseError(f"packing uses arc {aid!r} twice")
                tree_of_arc[aid] = tree.root_index
            for use in tree.edges:
                e = g.edge_by_id.get(use.id)
                if e is None:
                    raise ParseError(f"packing names unknown edge {use.id!r}")
                if frozenset((use.tail, use.head)) != e.ends:
                    raise ParseError(f"packing uses edge {use.id!r} with endpoints not its own")
                if use.id in tree_of_edge:
                    raise ParseError(f"packing uses edge {use.id!r} twice")
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


#: each subcommand's handler but ``solve``'s, by its name on the command line
COMMANDS = {
    "check": _cmd_check,
    "atoms": _cmd_atoms,
    "orient": _cmd_orient,
    "pack-digraph": _cmd_pack_digraph,
    "certify": _cmd_certify,
    "export-dot": _cmd_export_dot,
}
