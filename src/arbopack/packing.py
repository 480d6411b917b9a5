"""Pack reachability arborescences in a directed graph.

Feasibility is the cut condition: every vertex set must admit at least as
many entering arcs as there are roots outside it whose reachability set
meets it.  Construction decomposes the digraph into atoms (classes of
equal reaching-root sets), then packs branchings atom by atom: a tree
rooted inside an atom grows from its root, any other tree enters through
the arcs crossing into the atom, and each crossing arc serves at most one
tree.  Atom subproblems share no arcs, so they are independent.  Within
an atom, a residual cut check that is necessary and sufficient (the
root-set form of Kamiyama-Katoh-Takizawa, as in Fujishige's note on
disjoint arborescences) lets the trees grow one arc at a time with no
search: each arc taken is the first one that keeps the check passing.
When the check fails before any arc is taken, its deficient set, lifted
to the whole digraph, is the violated set returned.
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

_TERMINAL_FMT = {"arc": "t:a:{}", "edge": "t:e:{}"}


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
    succ: dict[str, list[str]] = {v: [] for v in d.vertices}
    for a in d.arcs:
        succ[a.tail].append(a.head)
    return _reachable(succ, s)


def pack_reachability(
    d: DirectedView, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS
):
    """A packing of reachability arborescences, or a violated vertex set.

    Atoms are processed in topological order of their root-set lattice;
    within each atom the entry points of tree i are its root (when the
    root lies inside) or the crossing arcs coming from vertices tree i
    already spans.
    """
    dec = _decompose(d, roots, reachable_in_view)
    atoms, atom_roots, atom_of = dec.atoms, dec.atom_roots, dec.atom_of

    order = sorted(range(len(atoms)), key=lambda j: (len(atom_roots[j]), j))
    tree_arcs: dict[int, list[tuple[int, ViewArc]]] = {i: [] for i in range(len(roots))}
    arc_pos = {a.key: pos for pos, a in enumerate(d.arcs)}

    for j in order:
        gamma = atoms[j]
        entering = [a for a in d.arcs if a.head in gamma and a.tail not in gamma]
        term_id = {}
        back: dict[tuple[str, str], ViewArc] = {}
        # keep declaration order: internal arcs as-is, entering arcs re-rooted
        # at their terminals
        aux_arcs: list[ViewArc] = []
        for a in d.arcs:
            if a.head not in gamma:
                continue
            if a.tail in gamma:
                aux_arcs.append(a)
            else:
                t = _TERMINAL_FMT[a.origin].format(a.id)
                term_id[a.key] = t
                back[a.key] = a
                aux_arcs.append(ViewArc(a.id, t, a.head, a.origin))
        vertices = tuple(v for v in d.vertices if v in gamma) + tuple(
            term_id[a.key] for a in entering
        )
        view_j = DirectedView(vertices, tuple(aux_arcs))
        demands: dict[int, frozenset[str]] = {}
        for i in sorted(atom_roots[j]):
            if roots[i] in gamma:
                demands[i] = frozenset((roots[i],))
            else:
                allowed = []
                for a in entering:
                    ju = atom_of.get(a.tail)
                    if ju is not None and i in atom_roots[ju]:
                        allowed.append(term_id[a.key])
                demands[i] = frozenset(allowed)
        result = pack_atom_branchings(view_j, gamma, demands, bounds)
        if isinstance(result, frozenset):
            return _lift_witness(d, result, {term_id[a.key]: a.tail for a in entering})
        for i, arcs in result.items():
            for a in arcs:
                orig = back.get(a.key, a)
                tree_arcs[i].append((arc_pos[orig.key], orig))

    trees = tuple(
        Arborescence(i, tuple(a for _pos, a in sorted(tree_arcs[i], key=lambda x: x[0])))
        for i in range(len(roots))
    )
    return DigraphPacking(trees)


def _lift_witness(
    d: DirectedView, witness: frozenset[str], terminal_tail: Mapping[str, str]
) -> frozenset[str]:
    """Lift an atom's deficient set to a violated vertex set of ``d``.

    ``witness`` is an atom part Y plus the terminals of its worst
    completion.  Each terminal is replaced by every vertex that reaches
    its tail.  A tree the atom check counted spans an out-closed set that
    misses those tails, so it misses every added vertex and still needs
    an arc into Y.  An arc into an added vertex starts at an added vertex.
    So the only arcs entering the lifted set are the ones the check
    counted, and there are too few of them.
    """
    pred: dict[str, list[str]] = {v: [] for v in d.vertices}
    for a in d.arcs:
        pred[a.head].append(a.tail)
    lifted: set[str] = set()
    for v in witness:
        if v in terminal_tail:
            lifted |= _reachable(pred, terminal_tail[v])
        else:
            lifted.add(v)
    return frozenset(lifted)


def pack_atom_branchings(
    view: DirectedView,
    gamma: frozenset[str],
    demands: Mapping[int, frozenset[str]],
    bounds: Bounds = DEFAULT_BOUNDS,
) -> dict[int, tuple[ViewArc, ...]] | frozenset[str]:
    """Arc-disjoint branchings covering ``gamma``, one per demanded tree.

    ``demands[i]`` lists tree i's entry points: either its root vertex
    inside ``gamma`` or the terminal vertices it may consume.  Each
    terminal's unique arc is used by at most one tree.  When no such
    packing exists, returns a deficient vertex set of ``view`` instead:
    an atom part Y plus the terminals of its worst completion, where the
    trees with no foothold in Y outnumber the arcs entering the set.

    The residual check (every inner set keeps enough unused arcs for the
    trees that still lack a foothold in it, under its worst terminal
    completion) is exact for the rest of the packing, so the trees grow
    greedily: each arc taken is the first candidate after which the
    check still passes, and no choice is ever undone.
    """
    bit = {v: i for i, v in enumerate(view.vertices)}
    gmask = 0
    for v in gamma:
        gmask |= 1 << bit[v]
    terminal_set = frozenset(view.vertices) - gamma

    trees = sorted(demands)
    covered = {}
    allowed_term = {}
    for i in trees:
        entry = view.require_vertices(demands[i])
        covered[i] = sum(1 << bit[v] for v in entry & gamma)
        allowed_term[i] = sum(1 << bit[v] for v in entry & terminal_set)

    # The unused arcs, as the sweep takes them: atom arcs as (tail, head)
    # masks, terminal arcs with the mask of trees they may serve.  The
    # sweep's answer does not depend on their order.
    atom_arcs: list[tuple[int, ...]] = []
    term_arcs: list[tuple[int, ...]] = []
    cands = []  # (unused-arc list, masks, arc), in declaration order
    for a in view.arcs:
        if a.is_loop():
            continue
        tb, hb = 1 << bit[a.tail], 1 << bit[a.head]
        if a.tail in terminal_set:
            hit = 0
            for i in trees:
                if tb & allowed_term[i]:
                    hit |= 1 << i
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
        return frozenset(v for v in view.vertices if 1 << bit[v] & short[2])

    owner: list[int | None] = [None] * len(cands)
    for i in trees:
        while gmask & ~covered[i]:
            uncovered = gmask & ~covered[i]
            for k, (pool, masks, _a) in enumerate(cands):
                if owner[k] is not None or not masks[1] & uncovered:
                    continue
                foothold = allowed_term[i] if pool is term_arcs else covered[i]
                if not masks[0] & foothold:
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
            if a.key not in d.arc_by_key:
                return CheckResult(
                    False,
                    f"tree {tree.root_index + 1} uses unknown arc {a.id!r}",
                )
            if a.key in used:
                kind = "edge" if a.origin == "edge" else "arc"
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
