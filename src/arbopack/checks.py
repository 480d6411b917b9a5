"""Re-checking an answer against the input graph alone.

:func:`validate_mixed_packing` checks a packing, and
:func:`verify_certificate` a bi-set family certificate.  Each recomputes
what it needs from the graph and the roots (reachability, atoms and the
family's two sides), and this module imports nothing of the solver, so
an answer is checked by code that did not produce it.  ``solve`` calls
neither, so ``import arbopack`` loads this module on first use of one of
them.
"""

from __future__ import annotations

from typing import Sequence

from .decomposition import _certificate_sides, compute_atoms
from .graph_core import (
    CheckResult,
    MixedGraph,
    MixedPacking,
    OK_RESULT,
    _reachable,
    mixed_reachable_set,
)


def verify_certificate(
    g: MixedGraph, roots: Sequence[str], cert: BiSetFamilyCertificate
) -> CheckResult:
    """Re-check a certificate against the input graph alone.

    Recomputes the decomposition, the family shape, and both sides of
    the inequality from scratch; accepts only a strict violation.
    ``cert`` is read by its fields, so its type, defined by the solver in
    ``arbopack.pipeline``, is named here and not imported.
    """
    try:
        for b in cert.bisets:
            g.require_vertices(b.outer)
    except ValueError as exc:
        return CheckResult(False, str(exc))
    if not cert.bisets:
        return CheckResult(False, "certificate has no bi-sets")
    dec = compute_atoms(g, roots)
    seen: set[str] = set()
    for b in cert.bisets:
        if not b.inner:
            return CheckResult(False, "a bi-set has an empty inner set")
        if b.inner & seen:
            return CheckResult(False, "inner sets overlap: not a subpartition")
        seen |= b.inner
    atoms_hit = {dec.atom_of.get(v) for b in cert.bisets for v in b.inner}
    if None in atoms_hit:
        return CheckResult(False, "an inner set leaves every atom")
    if len(atoms_hit) != 1:
        return CheckResult(False, "inner sets are not a subpartition of one atom")
    (j,) = atoms_hit
    if j != cert.atom_index:
        return CheckResult(
            False, f"certificate names atom {cert.atom_index} but covers atom {j}"
        )
    gamma = dec.atoms[j]
    for b in cert.bisets:
        if b.wall() & gamma:
            return CheckResult(False, "an outer set meets the atom outside its inner set")
    lhs, rhs = _certificate_sides(g, roots, dec, cert.bisets)
    if (lhs, rhs) != (cert.lhs, cert.rhs):
        return CheckResult(
            False,
            f"recorded sides ({cert.lhs}, {cert.rhs}) do not match "
            f"recomputation ({lhs}, {rhs})",
        )
    if lhs >= rhs:
        return CheckResult(False, f"inequality not violated (lhs={lhs} >= rhs={rhs})")
    return OK_RESULT


def validate_mixed_packing(
    g: MixedGraph, roots: Sequence[str], mp: MixedPacking
) -> CheckResult:
    """Check disjointness, per-tree arborescence shape, and spanning sets."""
    if len(mp.trees) != len(roots):
        return CheckResult(False, f"expected {len(roots)} trees, got {len(mp.trees)}")
    arc_by_id, edge_by_id = g.arc_by_id, g.edge_by_id
    used_arcs: set[str] = set()
    used_edges: set[str] = set()
    # the records are unpacked: a tuple's items read faster than its fields
    for _root_index, _root, arcs, edges in mp.trees:
        for aid in arcs:
            if aid not in arc_by_id:
                return CheckResult(False, f"unknown arc {aid!r}")
            if aid in used_arcs:
                return CheckResult(False, f"arc {aid} used twice")
            used_arcs.add(aid)
        for eid, tail, head in edges:
            e = edge_by_id.get(eid)
            if e is None:
                return CheckResult(False, f"unknown edge {eid!r}")
            _eid, u, v = e
            if (tail, head) != (u, v) and (tail, head) != (v, u):
                return CheckResult(False, f"edge {eid} used with endpoints not its own")
            if eid in used_edges:
                return CheckResult(False, f"edge {eid} used twice")
            used_edges.add(eid)
    reach: dict[str, frozenset[str]] = {}  # searched once per distinct root
    for i, (root_index, root, arcs, edges) in enumerate(mp.trees):
        if root_index != i:
            return CheckResult(False, f"tree {i + 1} carries root index {root_index + 1}")
        r = roots[i]
        if root != r:
            return CheckResult(False, f"tree {i + 1} names root {root!r}, not {r!r}")
        hops = [arc_by_id[aid][1:] for aid in arcs]
        hops += [(tail, head) for _eid, tail, head in edges]
        if r not in reach:
            reach[r] = mixed_reachable_set(g, r)
        verdict = _check_arborescence(hops, r, reach[r], i)
        if not verdict:
            return verdict
    return OK_RESULT


def _check_arborescence(
    hops: Sequence[tuple[str, str]], root: str, span: frozenset[str], i: int
) -> CheckResult:
    """Verdict on tree ``i``, given as ``(tail, head)`` hops.

    The hops must form an arborescence rooted at ``root`` that spans
    exactly ``span``.
    """
    # first-appearance order, so the vertex a reason names does not
    # depend on string hashing
    verts = dict.fromkeys([root, *(v for hop in hops for v in hop)]).keys()
    indeg: dict[str, int] = {}
    for _t, h in hops:
        indeg[h] = indeg.get(h, 0) + 1
    if indeg.get(root, 0) != 0:
        return CheckResult(False, f"tree {i + 1}: root {root} has an incoming arc")
    for v in verts:
        if v != root and indeg.get(v, 0) != 1:
            return CheckResult(
                False, f"tree {i + 1}: vertex {v} has in-degree {indeg.get(v, 0)}"
            )
    succ: dict[str, list[str]] = {v: [] for v in verts}
    for t, h in hops:
        succ[t].append(h)
    if _reachable(succ, root) != verts:
        return CheckResult(
            False, f"tree {i + 1} is not an arborescence rooted at {root}"
        )
    if verts != span:
        return CheckResult(False, f"tree {i + 1} does not span U_{i + 1}")
    return OK_RESULT
