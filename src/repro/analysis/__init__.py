"""Experiment harness: paper data, rendering, sweeps, CLI.

``python -m repro.analysis run table1`` (or the installed
``repro-analysis`` script) regenerates any published artifact and
prints it side-by-side with the paper's numbers.  Execution lives in
:mod:`repro.scenarios` (declarative specs + Runner + typed results);
this package keeps the paper's numbers (:mod:`~repro.analysis.paper_data`),
the table renderer (:mod:`~repro.analysis.tables`), the sweep helpers
(:mod:`~repro.analysis.sweeps`) and the CLI front-end.
"""

from repro.analysis.paper_data import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
)
from repro.analysis.tables import format_table, format_comparison
from repro.analysis.sweeps import (
    SweepSeries,
    ascii_plot,
    ddr_loss_vs_banks,
    ixp_rate_vs_queues,
    mms_delay_vs_load,
    npu_rate_vs_clock,
)

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "format_table",
    "format_comparison",
    "SweepSeries",
    "ascii_plot",
    "ddr_loss_vs_banks",
    "ixp_rate_vs_queues",
    "npu_rate_vs_clock",
    "mms_delay_vs_load",
]
