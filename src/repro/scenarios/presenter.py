"""Render typed results to the paper's plain-text tables.

Rendering is a presentation concern over :class:`RunResult` /
:class:`Block` data -- executors never format anything, so the same
result can be rendered, serialized to JSON, or compared numerically.
The actual alignment code lives in :mod:`repro.analysis.tables`.
"""

from __future__ import annotations

from repro.analysis.tables import format_comparison, format_table
from repro.scenarios.result import Block, RunResult


def render_block(block: Block) -> str:
    """Render one presentation block."""
    if block.kind == "text":
        return block.text
    if block.kind == "comparison":
        return format_comparison(block.headers, block.rows,
                                 paper_col=block.paper_col,
                                 model_col=block.model_col,
                                 title=block.title)
    return format_table(block.headers, block.rows, title=block.title)


def render(result: RunResult) -> str:
    """Render a full result (blocks joined by a blank line)."""
    return "\n\n".join(render_block(b) for b in result.blocks)
