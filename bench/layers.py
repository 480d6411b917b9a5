"""Per-layer spans and counts, recorded from outside the program.

A traced pass swaps every ``arbopack`` module attribute bound to one of the
exported functions below for a wrapper that records a span
``(name, start_ns, end_ns, parent, instance)``; no source file changes.  The
swap covers each module that imported the name, so calls between layers
are seen wherever they are made.  A name the package no longer has is
reported as absent instead of failing the run.

A layer's time is its self time: span duration minus the time its child
spans cover, so the layer times of one pass add up to the traced total.
"""

from __future__ import annotations

import logging
import sys
import time
from dataclasses import dataclass
from typing import Callable

# (span name, exported name, module that defines it)
TARGETS = [
    ("graph_core.parse", "parse_mixed_graph", "arbopack.graph_core"),
    ("graph_core.mixed_reachable_set", "mixed_reachable_set", "arbopack.graph_core"),
    ("graph_core.apply_orientation", "apply_orientation", "arbopack.graph_core"),
    ("decomposition.compute_atoms", "compute_atoms", "arbopack.decomposition"),
    ("decomposition.build_auxiliary", "build_auxiliary", "arbopack.decomposition"),
    ("decomposition.context", "CoverRequirement", "arbopack.orientation"),
    ("orientation.orient", "orient_covering", "arbopack.orientation"),
    ("packing.pack_reachability", "pack_reachability", "arbopack.packing"),
    ("packing.pack_atom_branchings", "pack_atom_branchings", "arbopack.packing"),
    ("pipeline.solve", "solve", "arbopack.pipeline"),
    ("pipeline.covering_orientation", "covering_orientation", "arbopack.pipeline"),
    ("pipeline.certificate_lift", "certificate_from_subpartition", "arbopack.pipeline"),
    ("pipeline.validate_mixed_packing", "validate_mixed_packing", "arbopack.pipeline"),
    ("pipeline.verify_certificate", "verify_certificate", "arbopack.pipeline"),
]

# per-layer time metric -> the spans whose self time it sums
TIME_METRICS = {
    "graph_core.parse_ms": ("graph_core.parse",),
    "graph_core.mixed_reachable_set_ms": ("graph_core.mixed_reachable_set",),
    "graph_core.apply_orientation_ms": ("graph_core.apply_orientation",),
    "decomposition.compute_atoms_ms": ("decomposition.compute_atoms",),
    "decomposition.build_auxiliary_ms": ("decomposition.build_auxiliary",),
    "decomposition.context_ms": ("decomposition.context",),
    "orientation.orient_ms": ("orientation.orient",),
    "orientation.refute_ms": ("orientation.refute",),
    "packing.pack_reachability_ms": ("packing.pack_reachability",),
    "packing.pack_atom_branchings_ms": ("packing.pack_atom_branchings",),
    "pipeline.solve_ms": ("pipeline.solve", "pipeline.covering_orientation"),
    "pipeline.certificate_lift_ms": ("pipeline.certificate_lift",),
    "pipeline.validate_mixed_packing_ms": ("pipeline.validate_mixed_packing",),
    "pipeline.verify_certificate_ms": ("pipeline.verify_certificate",),
}

# per-layer count metric -> the span whose observer produces it
COUNT_METRICS = {
    "graph_core.vertices": "graph_core.parse",
    "graph_core.edges": "graph_core.parse",
    "graph_core.arcs": "graph_core.parse",
    "graph_core.roots": "graph_core.parse",
    "decomposition.atoms": "decomposition.compute_atoms",
    "decomposition.atom_size_max": "decomposition.compute_atoms",
    "decomposition.terminals": "decomposition.build_auxiliary",
    "orientation.atoms_oriented": "orientation.orient",
    "orientation.atoms_refuted": "orientation.orient",
    "orientation.subset_space": "orientation.orient",
    "packing.atom_calls": "packing.pack_atom_branchings",
    "packing.backtracks": None,  # from the packing logger, not a span
    "packing.backtracking_atoms": None,
}


def _observe_parse(counts, args, result):
    g, roots = result
    counts["graph_core.vertices"] += len(g.vertices)
    counts["graph_core.edges"] += len(g.edges)
    counts["graph_core.arcs"] += len(g.arcs)
    counts["graph_core.roots"] += len(roots)


def _observe_atoms(counts, args, result):
    counts["decomposition.atoms"] += len(result.atoms)
    biggest = max((len(a) for a in result.atoms), default=0)
    counts["decomposition.atom_size_max"] = max(
        counts["decomposition.atom_size_max"], biggest
    )


def _observe_auxiliary(counts, args, result):
    counts["decomposition.terminals"] += len(result.terminal_origin)


def _observe_orient(counts, args, result):
    import arbopack

    if isinstance(result, arbopack.Orientation):
        counts["orientation.atoms_oriented"] += 1
    else:
        counts["orientation.atoms_refuted"] += 1
    counts["orientation.subset_space"] += 2 ** len(args[0].aux.gamma)


def _observe_branchings(counts, args, result):
    counts["packing.atom_calls"] += 1


OBSERVERS: dict[str, Callable] = {
    "graph_core.parse": _observe_parse,
    "decomposition.compute_atoms": _observe_atoms,
    "decomposition.build_auxiliary": _observe_auxiliary,
    "orientation.orient": _observe_orient,
    "packing.pack_atom_branchings": _observe_branchings,
}


def _span_name(name: str, result) -> str:
    if name == "orientation.orient":
        import arbopack

        if not isinstance(result, arbopack.Orientation):
            return "orientation.refute"
    return name


class _BacktrackCounter(logging.Handler):
    """Sums the ``%d backtracks`` records the packing search logs."""

    def __init__(self, counts):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        if "backtracks" in str(record.msg) and record.args:
            n = int(record.args[0])
            self.counts["packing.backtracks"] += n
            self.counts["packing.backtracking_atoms"] += n > 0


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    instance: int


class Tracer:
    """Records spans and counts while installed; restores everything on exit.

    ``instance`` tags the spans with the corpus index being worked on, and
    counts are only taken while ``counting`` is set, so the validators'
    own calls into lower layers do not count the corpus twice.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.instance = -1
        self.counting = False
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.absent: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._handler = _BacktrackCounter(self.counts)
        self._logger = logging.getLogger("arbopack.packing")
        self._level = self._logger.level

    def __enter__(self):
        import arbopack

        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "arbopack" or name.startswith("arbopack."))
        ]
        for span_name, export, home in TARGETS:
            target = getattr(arbopack, export, None)
            if target is None and home in sys.modules:
                target = getattr(sys.modules[home], export, None)
            if target is None:
                self.absent.add(span_name)
                continue
            wrapper = self._wrap(span_name, target)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is target:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, wrapper)
        self._logger.addHandler(self._handler)
        self._logger.setLevel(logging.DEBUG)
        return self

    def __exit__(self, *exc):
        for m, attr, value in reversed(self._undo):
            setattr(m, attr, value)
        self._undo.clear()
        self._logger.removeHandler(self._handler)
        self._logger.setLevel(self._level)
        return False

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.instance)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.name = _span_name(name, result)
            if observe is not None and self.counting:
                observe(self.counts, args, result)
            return result

        return traced

    def self_times_ms(self) -> dict[str, float]:
        """Summed self time per span name, in milliseconds."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - c) / 1e6
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer time and count whose span source is present."""
        self_ms = self.self_times_ms()
        out: dict[str, float] = {}
        for metric, sources in TIME_METRICS.items():
            present = [s for s in sources if self._source(s) not in self.absent]
            if present:
                out[metric] = sum(self_ms.get(s, 0.0) for s in present)
        for metric, source in COUNT_METRICS.items():
            if source is None or source not in self.absent:
                out[metric] = self.counts[metric]
        return out

    @staticmethod
    def _source(span_name: str) -> str:
        return "orientation.orient" if span_name == "orientation.refute" else span_name

    def rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.instance] for s in self.spans]
