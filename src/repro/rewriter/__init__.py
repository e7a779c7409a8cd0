"""Trampoline-based static binary rewriting (the E9Patch substrate).

The rewriter transforms a saved binary image into a new image in which
selected instructions are replaced by 5-byte jumps to trampolines; each
trampoline runs caller-supplied instrumentation, then the displaced
instruction(s), then jumps back.  No control-flow *correction* is ever
needed because original instructions (other than the patched bytes) stay
at their original addresses — the property that lets this approach scale
to arbitrary stripped binaries.
"""

from repro.rewriter.cfg import BasicBlock, ControlFlowInfo, recover_control_flow
from repro.rewriter.regusage import dead_after
from repro.rewriter.rewriter import PatchRequest, RewriteResult, Rewriter
from repro.rewriter.stats import RewriteStatistics, rewrite_statistics

__all__ = [
    "BasicBlock",
    "ControlFlowInfo",
    "recover_control_flow",
    "dead_after",
    "PatchRequest",
    "RewriteResult",
    "Rewriter",
    "RewriteStatistics",
    "rewrite_statistics",
]
