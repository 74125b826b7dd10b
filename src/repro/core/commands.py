"""The MMS command set.

Section 6 lists the operations: enqueue one segment; delete one segment
or a full packet; overwrite a segment; append a segment at the head or
tail of a packet; move a packet to a new queue.  Table 4 additionally
prices read, dequeue, overwrite-segment-length and the two combination
commands.  Each command addresses one flow queue (and a destination
queue for moves).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class CommandType(Enum):
    """Every operation the MMS executes (Section 6 + Table 4)."""

    ENQUEUE = "enqueue"
    DEQUEUE = "dequeue"
    READ = "read"
    OVERWRITE = "overwrite"
    DELETE = "delete"
    DELETE_PACKET = "delete_packet"
    MOVE = "move"
    OVERWRITE_LENGTH = "overwrite_segment_length"
    OVERWRITE_LENGTH_MOVE = "overwrite_segment_length_and_move"
    OVERWRITE_MOVE = "overwrite_segment_and_move"
    APPEND_HEAD = "append_head"
    APPEND_TAIL = "append_tail"


#: Commands that transfer a 64-byte segment to/from the data memory.
DATA_WRITE_COMMANDS = frozenset({
    CommandType.ENQUEUE,
    CommandType.OVERWRITE,
    CommandType.OVERWRITE_MOVE,
    CommandType.APPEND_HEAD,
    CommandType.APPEND_TAIL,
})
DATA_READ_COMMANDS = frozenset({
    CommandType.DEQUEUE,
    CommandType.READ,
})
#: Pointer-only commands: no data-memory access at all.
POINTER_ONLY_COMMANDS = frozenset({
    CommandType.DELETE,
    CommandType.DELETE_PACKET,
    CommandType.MOVE,
    CommandType.OVERWRITE_LENGTH,
    CommandType.OVERWRITE_LENGTH_MOVE,
})

_cmd_ids = itertools.count()


@dataclass
class Command:
    """One command submitted to an MMS port.

    Life-cycle timestamps (picoseconds) are filled in by the blocks:
    ``submit_ps`` by the port, ``start_exec_ps``/``end_exec_ps`` by the
    DQM.  The data-transfer bounds land in the command's completion
    record (:attr:`repro.core.dqm.DataQueueManager.records`).
    """

    type: CommandType
    flow: int
    dst_flow: Optional[int] = None
    eop: bool = True
    length: int = 64
    pid: int = -1
    seg_index: int = 0
    port: int = 0
    cid: int = field(default_factory=lambda: next(_cmd_ids))
    submit_ps: int = -1
    start_exec_ps: int = -1
    end_exec_ps: int = -1
    #: Optional simulation event; when set, the DQM triggers it with the
    #: command's functional result at end of execution (see
    #: :meth:`repro.core.mms.MMS.submit_and_wait`).
    completion: object = None

    def __post_init__(self) -> None:
        if self.flow < 0:
            raise ValueError(f"flow must be >= 0, got {self.flow}")
        if not 1 <= self.length <= 64:
            raise ValueError(f"length must be in [1, 64], got {self.length}")
        needs_dst = self.type in (
            CommandType.MOVE,
            CommandType.OVERWRITE_LENGTH_MOVE,
            CommandType.OVERWRITE_MOVE,
        )
        if needs_dst and self.dst_flow is None:
            raise ValueError(f"{self.type.value} requires dst_flow")
        if not needs_dst and self.dst_flow is not None:
            raise ValueError(f"{self.type.value} does not take dst_flow")

    @property
    def touches_data_memory(self) -> bool:
        return self.type in DATA_WRITE_COMMANDS or self.type in DATA_READ_COMMANDS

    @property
    def is_data_write(self) -> bool:
        return self.type in DATA_WRITE_COMMANDS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dst = f"->{self.dst_flow}" if self.dst_flow is not None else ""
        return f"Command({self.type.value}, flow={self.flow}{dst}, cid={self.cid})"
