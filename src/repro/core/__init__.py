"""The paper's contribution: the FPGA Memory Management System (MMS).

Section 6 describes a hardware queue manager of five parallel blocks --
Internal Scheduler, Data Queue Manager (DQM), Data Memory Controller
(DMC), Segmentation and Reassembly -- managing up to 32 K flow queues of
64-byte segments, with pointers in ZBT SRAM manipulated *in parallel*
with DDR data transfers.  At a conservative 125 MHz it executes one
command per 84 ns (~12 Mops/s), i.e. ~6.1 Gbps of 64-byte segment
operations (Tables 4 and 5).

Model structure:

* :mod:`repro.core.commands`   -- the command set (Section 6 list),
* :mod:`repro.core.microcode`  -- per-command pointer-access schedules;
  their lengths are Table 4 and their pointer ops are cross-checked
  against the real data-structure traces,
* :mod:`repro.core.dqm`        -- command execution over
  :class:`repro.queueing.PacketQueueManager`,
* :mod:`repro.core.dmc`        -- bank-aware data memory controller,
* :mod:`repro.core.scheduler`  -- per-port command FIFOs + priorities,
* :mod:`repro.core.segmentation` / :mod:`repro.core.reassembly`,
* :mod:`repro.core.mms`        -- the assembled block + load harness.
"""

from repro.core.commands import Command, CommandType
from repro.core.microcode import (
    MICROCODE,
    Microcode,
    TABLE4_CYCLES,
    table4_command_types,
)
from repro.core.dmc import DataMemoryController
from repro.core.dqm import DataQueueManager
from repro.core.scheduler import InternalScheduler, PortConfig
from repro.core.segmentation import SegmentationBlock
from repro.core.reassembly import ReassemblyBlock
from repro.core.mms import MMS, MmsConfig, MmsLoadResult, figure2_diagram, run_load
from repro.core.qos import DeficitRoundRobin, DequeuedPacket, StrictPriorityScheduler

__all__ = [
    "Command",
    "CommandType",
    "Microcode",
    "MICROCODE",
    "TABLE4_CYCLES",
    "table4_command_types",
    "DataMemoryController",
    "DataQueueManager",
    "InternalScheduler",
    "PortConfig",
    "SegmentationBlock",
    "ReassemblyBlock",
    "MMS",
    "MmsConfig",
    "MmsLoadResult",
    "run_load",
    "figure2_diagram",
    "StrictPriorityScheduler",
    "DeficitRoundRobin",
    "DequeuedPacket",
]
