"""A generic worklist fixpoint solver over :class:`BlockGraph` nodes.

One engine serves every client analysis in this package: forward
(provenance, dominators) and backward (liveness) problems differ only in
which edge map drives propagation and which side of the block the
boundary fact seeds.  A client supplies:

``boundary``
    The fact at the entry (forward) / exit (backward) of root nodes —
    the most conservative assumption about control arriving from outside
    the recovered edge set.

``transfer(node, fact)``
    The whole-block transfer function, applied to the input-side fact.

``join(a, b)``
    The lattice join.  ``None`` is the universal bottom (unreachable /
    not-yet-computed); the solver handles it, clients never see it.

``edge(source, sink, fact)``
    Optional per-edge adjustment of the propagated fact (e.g. modelling
    an unknown callee's clobbers on a call fall-through edge).

``widen(old, new, changes)``
    Optional count-aware join used in place of ``join``: *changes* is
    how many times the sink's fact has already changed, so a client can
    delay widening and then jump (the range analysis does).

The solver is monotone-framework standard: seed roots, iterate until no
input fact changes.  A hard iteration budget turns an accidental
non-monotone transfer into a typed error instead of a hang, and is the
hook for the ``analysis.fixpoint`` fault point.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.errors import InstrumentationError
from repro.faults.injector import fault_point
from repro.analysis.graph import BlockGraph

#: Iterations-per-node floor; the effective budget also scales with the
#: graph (dominator sets shrink element-by-element along long chains).
#: Exceeding it means a broken (non-monotone or infinite-chain) transfer.
MAX_VISITS_PER_NODE = 1024


class FixpointDiverged(InstrumentationError):
    """The solver exhausted its iteration budget (or was fault-injected)."""


def solve(
    graph: BlockGraph,
    *,
    direction: str,
    boundary: object,
    transfer: Callable[[int, object], object],
    join: Optional[Callable[[object, object], object]] = None,
    widen: Optional[Callable[[object, object, int], object]] = None,
    edge: Optional[Callable[[int, int, object], object]] = None,
    roots: Optional[Iterable[int]] = None,
    boundaries: Optional[Dict[int, object]] = None,
    budget: Optional[int] = None,
) -> Dict[int, object]:
    """Run the worklist to fixpoint; return the input-side fact per node.

    *direction* is ``"forward"`` (facts at block entry, propagated along
    successor edges) or ``"backward"`` (facts at block exit, propagated
    along predecessor edges).  *roots* overrides the graph's root set —
    backward problems seed exit-less blocks instead of entry blocks.
    *boundaries* overrides the seed fact per node (nodes listed there are
    added to the root set; others keep *boundary*) — the interprocedural
    pass uses it to give a function entry its call-site fact while other
    roots stay at the conservative boundary.  *budget* overrides the
    iterations-per-node limit (tests pin it to exercise the divergence
    path deterministically).  Exactly one of *join* and *widen* is
    required.
    """
    if direction == "forward":
        out_edges = graph.succs
    elif direction == "backward":
        out_edges = graph.preds
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if (join is None) == (widen is None):
        raise ValueError("solve needs exactly one of join and widen")
    if fault_point("analysis.fixpoint"):
        raise FixpointDiverged("injected fixpoint divergence")

    root_set = set(graph.roots if roots is None else roots)
    if boundaries:
        root_set |= set(boundaries)
    facts: Dict[int, object] = {}
    for node in root_set:
        if boundaries and node in boundaries:
            facts[node] = boundaries[node]
        else:
            facts[node] = boundary

    worklist = sorted(root_set)
    queued = set(worklist)
    visits: Dict[int, int] = {}
    changes: Dict[int, int] = {}
    if budget is None:
        budget = max(MAX_VISITS_PER_NODE, 2 * len(graph.blocks) + 8)
    while worklist:
        node = worklist.pop()
        queued.discard(node)
        visits[node] = visits.get(node, 0) + 1
        if visits[node] > budget:
            raise FixpointDiverged(
                f"block {node:#x} revisited {visits[node]} times; "
                "transfer function is not monotone"
            )
        in_fact = facts.get(node)
        if in_fact is None:
            continue
        out_fact = transfer(node, in_fact)
        for sink in out_edges.get(node, ()):
            propagated = edge(node, sink, out_fact) if edge else out_fact
            current = facts.get(sink)
            if current is None:
                merged = propagated
            elif widen is None:
                merged = join(current, propagated)
            else:
                merged = widen(current, propagated, changes.get(sink, 0))
            if merged != current:
                if current is not None:
                    changes[sink] = changes.get(sink, 0) + 1
                facts[sink] = merged
                if sink not in queued:
                    worklist.append(sink)
                    queued.add(sink)
    return facts
