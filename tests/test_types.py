"""The value types: immutable, compared by value, built by position or keyword.

The pure records are ``typing.NamedTuple``s; the types that coerce,
validate or cache share ``graph_core._Value``.  Either way an instance
cannot be changed, equal values compare and hash equal, and the repr
reads ``Name(field=value, ...)``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from arbopack import (
    DEFAULT_BOUNDS,
    Arc,
    AtomDecomposition,
    AuxiliaryGraph,
    BiSet,
    BiSetFamilyCertificate,
    Bounds,
    CheckResult,
    CoverRequirement,
    Edge,
    EdgeUse,
    MixedGraph,
    MixedPacking,
    MixedTree,
    Orientation,
    SubpartitionCertificate,
    build_auxiliary,
    compute_atoms,
)
from arbopack.graph_core import _Value


def _samples() -> dict[type, tuple]:
    """Constructor arguments, by position, of one instance of every type."""
    edge, arc = Edge("e1", "a", "b"), Arc("a1", "r", "a")
    g = MixedGraph(("r", "a", "b"), (edge,), (arc,))
    dec = compute_atoms(g, ["r"])
    aux = build_auxiliary(g, dec, 0)
    use = EdgeUse("e1", "a", "b")
    tree = MixedTree(0, "r", ("a1",), (use,))
    biset = BiSet(frozenset({"a", "r"}), frozenset({"a"}))
    return {
        Edge: tuple(edge),
        Arc: tuple(arc),
        CheckResult: (False, "why"),
        MixedGraph: (g.vertices, g.edges, g.arcs),
        Orientation: ({"e1": ("a", "b")},),
        BiSet: (biset.outer, biset.inner),
        AtomDecomposition: (dec.reach, dec.atoms, dec.atom_roots),
        AuxiliaryGraph: (aux.atom_index, aux.graph, aux.gamma, aux.terminal_origin),
        Bounds: (7,),
        CoverRequirement: (g, dec, 0, ("r",), Bounds(7)),
        SubpartitionCertificate: (0, (frozenset({"a"}),), 1),
        EdgeUse: tuple(use),
        MixedTree: tuple(tree),
        MixedPacking: ((tree,),),
        BiSetFamilyCertificate: (0, (biset,), 1, 2),
    }


SAMPLES = _samples()
TYPES = list(SAMPLES)
RECORDS = [cls for cls in TYPES if issubclass(cls, tuple)]
VALUES = [cls for cls in TYPES if issubclass(cls, _Value)]


def _make(cls):
    return cls(*SAMPLES[cls])


def test_every_exported_type_is_covered():
    import arbopack

    exported = {getattr(arbopack, name) for name in arbopack.__all__}
    exported = {x for x in exported if isinstance(x, type) and not issubclass(x, Exception)}
    assert exported <= set(TYPES), exported - set(TYPES)
    assert len(RECORDS) == 8 and len(VALUES) == 7


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
class TestContract:
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        x = _make(cls)
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(x, field, None)
            with pytest.raises(AttributeError):
                delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert _make(cls) == x

    def test_equal_values_compare_and_hash_equal(self, cls):
        x, y = _make(cls), _make(cls)
        assert x is not y and x == y and not x != y
        values = tuple(getattr(x, f) for f in cls._fields)
        try:
            expected = hash(values)
        except TypeError:
            # a dict field makes the instance unhashable, as it makes the values
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(y) == expected

    def test_repr_names_every_field(self, cls):
        x = _make(cls)
        fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in cls._fields)
        assert repr(x) == f"{cls.__name__}({fields})"

    def test_built_by_position_and_by_keyword(self, cls):
        args = SAMPLES[cls]
        assert cls(*args) == cls(**dict(zip(cls._fields, args)))

    def test_pickles_and_copies_to_an_equal_value(self, cls):
        x = _make(cls)
        assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x) == copy.copy(x)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_values_equal_only_their_own_class(cls):
    x = _make(cls)
    values = tuple(getattr(x, f) for f in cls._fields)
    assert x != values and values != x
    assert x.__eq__(values) is NotImplemented
    assert x.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_unpack_index_and_equal_a_plain_tuple(cls):
    x = _make(cls)
    values = tuple(getattr(x, f) for f in cls._fields)
    assert x == values and tuple(x) == values
    assert [x[k] for k in range(len(values))] == list(values)
    (*unpacked,) = x
    assert tuple(unpacked) == values


def test_defaults():
    assert CheckResult(True).reason is None
    assert Bounds() == DEFAULT_BOUNDS and Bounds().max_enum_vertices == 20
    g = MixedGraph(vertices=("a",))
    assert g.edges == () and g.arcs == ()
    g, dec, j = SAMPLES[CoverRequirement][:3]
    assert CoverRequirement(g, dec, j, ["r"]).bounds is DEFAULT_BOUNDS


def test_truth_of_a_check_result():
    assert CheckResult(True) and not CheckResult(False, "no")


def test_validation_still_raises():
    with pytest.raises(ValueError, match="max_enum_vertices must be positive"):
        Bounds(max_enum_vertices=0)
    with pytest.raises(ValueError, match="duplicate vertex id 'a'"):
        MixedGraph(vertices=["a", "b", "a"])
    with pytest.raises(ValueError, match="unknown vertex 'c' on edge 'e1'"):
        MixedGraph(["a"], [Edge("e1", "a", "c")])
    with pytest.raises(ValueError, match="inner set must be contained in the outer set"):
        BiSet(outer={"a"}, inner={"a", "b"})


def test_coercion_still_happens():
    g = MixedGraph(vertices=["a", "b"], edges=[Edge("e1", "a", "b")])
    assert g.vertices == ("a", "b") and type(g.vertices) is tuple
    assert type(g.edges) is tuple and type(g.arcs) is tuple
    b = BiSet(outer={"a", "b"}, inner=["a"])
    assert b.outer == {"a", "b"} and type(b.outer) is frozenset and type(b.inner) is frozenset
    source = {"e1": ("a", "b")}
    o = Orientation(source)
    source["e1"] = ("b", "a")
    assert o.direction == {"e1": ("a", "b")}
    assert CoverRequirement(*SAMPLES[CoverRequirement][:3], ["r"]).roots == ("r",)


def test_cached_property_computed_once():
    g = MixedGraph(["a", "b"], arcs=[Arc("a1", "a", "b")])
    assert g.arc_by_id is g.arc_by_id
    assert g.arc_by_id == {"a1": Arc("a1", "a", "b")}
    dec = AtomDecomposition(*SAMPLES[AtomDecomposition])
    assert dec.atom_of is dec.atom_of
