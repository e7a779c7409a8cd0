"""Flow-sensitive dataflow analyses over the recovered CFG.

A reusable worklist fixpoint solver (:mod:`repro.analysis.solver`) over
block successor/predecessor edges (:mod:`repro.analysis.graph`), and
its client analyses:

- :mod:`repro.analysis.provenance` — per-register pointer-provenance
  lattice; justifies flow-sensitive check elimination (operands whose
  base provably derives from RSP/RIP/absolute addresses);
- :mod:`repro.analysis.liveness` — global register+flags liveness,
  replacing the everything-live-at-block-boundary assumption in
  trampoline specialization;
- :mod:`repro.analysis.dominators` — intra-procedural dominators,
  printed by ``redfat analyze`` (no elimination pass consumes them);
- :mod:`repro.analysis.callgraph` — call-graph recovery with bottom-up
  per-function summaries (clobbers, frees, store targets, symbolic
  returns);
- :mod:`repro.analysis.ranges` — interprocedural value-range/stride
  domain over registers and stack slots; justifies the
  ``eliminated_range`` check-elimination reason;
- :mod:`repro.analysis.audit` — the static memory-error auditor
  (``redfat audit``) built on the range facts.

Entry point: :func:`analyze_control_flow`, returning a
:class:`DataflowInfo` bundle that degrades gracefully (see
:mod:`repro.analysis.engine`).  ``python -m repro.analysis.dump FILE``
prints the per-block facts for debugging, as does ``redfat analyze``.
"""

from repro.analysis.engine import DataflowInfo, analyze_control_flow
from repro.analysis.graph import BlockGraph, build_block_graph
from repro.analysis.solver import FixpointDiverged, solve

__all__ = [
    "DataflowInfo",
    "analyze_control_flow",
    "BlockGraph",
    "build_block_graph",
    "FixpointDiverged",
    "solve",
]
