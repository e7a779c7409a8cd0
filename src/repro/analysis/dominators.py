"""Dominators over the recovered CFG.

``dom(b)`` — the blocks on *every* path from a root to ``b`` — is the
classic forward dataflow with intersection as the join, so it runs on
the same worklist solver as the other clients (facts are frozensets of
block start addresses; the boundary fact at a root is the root itself).

No elimination pass consumes them: ``redfat analyze`` prints them per
block (:mod:`repro.analysis.dump`) as a debugging aid.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.analysis.graph import BlockGraph
from repro.analysis import solver


def compute_dominators(graph: BlockGraph) -> Dict[int, FrozenSet[int]]:
    """``block start -> frozenset of dominating block starts`` (reflexive).

    Multiple roots are handled by giving every root the boundary fact
    ``{root}`` — equivalent to the textbook virtual-root construction.
    Unreachable blocks are absent from the result (treat as undominated).
    """
    facts = solver.solve(
        graph,
        direction="forward",
        boundary=frozenset(),
        transfer=lambda node, dom: dom | {node},
        join=lambda a, b: a & b,
    )
    return {node: dom | {node} for node, dom in facts.items()}
