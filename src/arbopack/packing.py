"""Pack reachability arborescences in a directed graph.

Feasibility is the cut condition: every vertex set must admit at least as
many entering arcs as there are roots outside it whose reachability set
meets it.  Construction decomposes the digraph into atoms (classes of
equal reaching-root sets), then packs branchings atom by atom, each on
the digraph itself: a tree rooted inside an atom grows from its root, any
other tree enters through the arcs crossing into the atom from vertices
it spans, and each crossing arc serves at most one tree.  Atom
subproblems share no arcs, so they are independent.  Within an atom, a
residual cut check that is necessary and sufficient (the root-set form
of Kamiyama-Katoh-Takizawa, as in Fujishige's note on disjoint
arborescences) lets the trees grow one arc at a time with no search:
each arc taken is the first one that keeps the check passing.  When the
check fails before any arc is taken, its deficient set, lifted to the
whole digraph, is the violated set returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import _decompose, _requirements
from .errors import InvariantError
from .graph_core import (
    CheckResult,
    DirectedView,
    OK_RESULT,
    ViewArc,
    _check_arborescence,
    _reachable,
)


@dataclass(frozen=True)
class Arborescence:
    """One tree of a packing: a root index and the arcs it uses."""

    root_index: int
    arcs: tuple[ViewArc, ...]


@dataclass(frozen=True)
class DigraphPacking:
    """Arc-disjoint trees, one per root index, spanning their reach sets."""

    trees: tuple[Arborescence, ...]


def reachable_in_view(d: DirectedView, s: str) -> frozenset[str]:
    """Vertices reachable from ``s`` along the view's arcs."""
    if s not in d.vertex_set:
        raise ValueError(f"unknown vertex {s!r}")
    return _reachable(d._successors, s)


def pack_reachability(
    d: DirectedView, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS
):
    """A packing of reachability arborescences, or a violated vertex set.

    Atoms are processed in topological order of their root-set lattice;
    within each atom tree i starts from its root (when the root lies
    inside) or from the arcs entering the atom out of U_i.
    """
    dec = _decompose(d, roots)
    atoms, atom_roots = dec.atoms, dec.atom_roots

    order = sorted(range(len(atoms)), key=lambda j: (len(atom_roots[j]), j))
    tree_arcs: dict[int, list[tuple[int, ViewArc]]] = {i: [] for i in range(len(roots))}
    arc_pos = {a.key: pos for pos, a in enumerate(d.arcs)}

    for j in order:
        gamma = atoms[j]
        demands = {
            i: frozenset((roots[i],)) if roots[i] in gamma else dec.reach[i] - gamma
            for i in sorted(atom_roots[j])
        }
        result = pack_atom_branchings(d, gamma, demands, bounds)
        if isinstance(result, frozenset):
            return _lift_witness(d, result, gamma)
        for i, arcs in result.items():
            tree_arcs[i].extend((arc_pos[a.key], a) for a in arcs)

    trees = tuple(
        Arborescence(i, tuple(a for _pos, a in sorted(tree_arcs[i], key=lambda x: x[0])))
        for i in range(len(roots))
    )
    return DigraphPacking(trees)


def _lift_witness(
    d: DirectedView, witness: frozenset[str], gamma: frozenset[str]
) -> frozenset[str]:
    """Lift an atom's deficient set to a violated vertex set of ``d``.

    ``witness`` is an atom part Y plus the tails of the entering arcs in
    its worst completion.  Each tail is replaced by every vertex that
    reaches it.  A tree the atom check counted spans an out-closed set
    that misses those tails, so it misses every added vertex and still
    needs an arc into Y.  An arc into an added vertex starts at an added
    vertex.  So the only arcs entering the lifted set are the ones the
    check counted, and there are too few of them.
    """
    pred: dict[str, list[str]] = {v: [] for v in d.vertices}
    for a in d.arcs:
        pred[a.head].append(a.tail)
    lifted = set(witness & gamma)
    for v in witness - gamma:
        lifted |= _reachable(pred, v)
    return frozenset(lifted)


def pack_atom_branchings(
    view: DirectedView,
    gamma: frozenset[str],
    demands: Mapping[int, frozenset[str]],
    bounds: Bounds = DEFAULT_BOUNDS,
) -> dict[int, tuple[ViewArc, ...]] | frozenset[str]:
    """Arc-disjoint branchings covering ``gamma``, one per demanded tree.

    ``demands[i]`` is what tree i already spans: its root inside
    ``gamma``, or vertices outside it.  An arc of ``view`` entering
    ``gamma`` can serve tree i when its tail is in ``demands[i]``, and
    serves at most one tree; arcs whose head is outside ``gamma`` are
    ignored.  When no such packing exists, returns a deficient vertex set
    of ``view`` instead: an atom part Y plus the tails of the entering
    arcs in its worst completion, where the trees with no foothold in Y
    outnumber the arcs entering the set.

    Atom vertices take the low mask bits, in ``view`` order, and each
    entering arc its own bit after them.  The residual check (every inner
    set keeps enough unused arcs for the trees that still lack a foothold
    in it, under its worst completion) is exact for the rest of the
    packing, so the trees grow greedily: each arc taken is the first
    candidate after which the check still passes, and no choice is ever
    undone.
    """
    view.require_vertices(gamma)
    bit = {v: 1 << k for k, v in enumerate(v for v in view.vertices if v in gamma)}
    gmask = (1 << len(bit)) - 1

    trees = sorted(demands)
    entry = {i: view.require_vertices(demands[i]) for i in trees}
    covered = {i: sum(bit[v] for v in entry[i] & gamma) for i in trees}

    # The unused arcs, as the sweep takes them: atom arcs as (tail, head)
    # masks, entering arcs with the mask of trees they may serve.  The
    # sweep's answer does not depend on their order.
    atom_arcs: list[tuple[int, ...]] = []
    term_arcs: list[tuple[int, ...]] = []
    cands = []  # (unused-arc list, masks, arc), in declaration order
    for a in view.arcs:
        hb = bit.get(a.head)
        if hb is None or a.is_loop():
            continue
        tb = bit.get(a.tail)
        if tb is None:
            tb = 1 << (len(bit) + len(term_arcs))
            hit = sum(1 << i for i in trees if a.tail in entry[i])
            pool, masks = term_arcs, (tb, hb, hit)
        else:
            pool, masks = atom_arcs, (tb, hb)
        pool.append(masks)
        cands.append((pool, masks, a))

    def first_short() -> tuple[int, int, int] | None:
        return next(
            _requirements(gmask, covered, atom_arcs, term_arcs, bounds.max_enum_vertices),
            None,
        )

    short = first_short()
    if short is not None:
        xmask = short[2]
        return frozenset(v for v, b in bit.items() if b & xmask) | frozenset(
            a.tail for pool, masks, a in cands if pool is term_arcs and masks[0] & xmask
        )

    owner: list[int | None] = [None] * len(cands)
    for i in trees:
        while gmask & ~covered[i]:
            uncovered = gmask & ~covered[i]
            for k, (pool, masks, _a) in enumerate(cands):
                if owner[k] is not None or not masks[1] & uncovered:
                    continue
                if pool is term_arcs:
                    usable = masks[2] >> i & 1
                else:
                    usable = masks[0] & covered[i]
                if not usable:
                    continue
                owner[k] = i
                pool.remove(masks)
                covered[i] |= masks[1]
                if first_short() is None:
                    break
                owner[k] = None
                pool.append(masks)
                covered[i] &= ~masks[1]
            else:
                raise InvariantError(
                    f"tree {i + 1} found no arc that keeps the residual check, "
                    "although the check passed before"
                )
    return {
        i: tuple(a for (_f, _e, a), o in zip(cands, owner) if o == i) for i in trees
    }


def validate_digraph_packing(
    d: DirectedView, roots: Sequence[str], packing: DigraphPacking
) -> CheckResult:
    """Check shape, spanning sets, and arc-disjointness of a packing."""
    if len(packing.trees) != len(roots):
        return CheckResult(
            False, f"expected {len(roots)} trees, got {len(packing.trees)}"
        )
    used: dict[tuple[str, str], int] = {}
    for tree in packing.trees:
        for a in tree.arcs:
            known = d.arc_by_key.get(a.key)
            if known is None:
                return CheckResult(
                    False,
                    f"tree {tree.root_index + 1} uses unknown arc {a.id!r}",
                )
            kind = "edge" if a.origin == "edge" else "arc"
            if (a.tail, a.head) != (known.tail, known.head):
                return CheckResult(
                    False,
                    f"{kind} {a.id} used as {a.tail}->{a.head}, "
                    f"not {known.tail}->{known.head}",
                )
            if a.key in used:
                return CheckResult(False, f"{kind} {a.id} used twice")
            used[a.key] = tree.root_index
    for i, tree in enumerate(packing.trees):
        if tree.root_index != i:
            return CheckResult(False, f"tree {i + 1} carries root index {tree.root_index + 1}")
        r = roots[i]
        hops = [(a.tail, a.head) for a in tree.arcs]
        verdict = _check_arborescence(hops, r, reachable_in_view(d, r), i)
        if not verdict:
            return verdict
    return OK_RESULT
