"""Exact snapshot/restore of the :class:`StreamMms` machine.

The stream engine is a fixed set of scalar actors over plain data
structures -- per-port FIFO deques, the DQM cursor and in-flight
command, the DMC bank/turnaround registers and pending step, the wake
heap (feeders and DQM only), the
functional :class:`~repro.queueing.PacketQueueManager` state and the
buffer-policy books -- so (unlike the generator-based kernel) its full
state serializes exactly.  Two representation details matter:

* **Command identity.**  Command records are *mutable lists* aliased
  across the structures (a FIFO entry later becomes ``_cur`` and then a
  ``_done`` entry; a command's DMC request list is aliased into
  ``_dmc_queue``).  The snapshot therefore collects every live command
  once, in deterministic order (FIFOs by port, backpressured pending,
  in-flight, done), serializes each exactly once, and stores every
  other occurrence as an index into that table.  Restore rebuilds the
  lists and re-links the aliases, so post-resume mutations (the DMC
  completing a request, the tail finalizing ``_cur``) land in the same
  shared records they would have in an unbroken run.
* **Rest points.**  Snapshots are taken only between ``run()`` calls.
  The engine is then at rest: no actor is mid-step, the DMC pass has
  consumed every handoff and run every step up to ``now`` (its next
  step, if any, is the recorded pending step), the wake heap (the
  over-horizon wake included -- the kernel run contract keeps it
  scheduled) is a plain list in heap order, and feeders are suspended
  at a micro-op boundary, which is what lets
  :mod:`repro.checkpoint.feeders` fast-forward them.

Feeder generators themselves are not serialized here: the snapshot
records each feeder's consumed-op count and observation tape
(requiring the :class:`~repro.checkpoint.feeders.CountedFeeder`
wrapper), and restore re-derives the generators from caller-provided
factories -- see :mod:`repro.checkpoint.runs` for the workload-level
pairing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Sequence

from repro.checkpoint.feeders import CountedFeeder, Tape
from repro.checkpoint.snapshot import CheckpointError
from repro.core.commands import CommandType
from repro.engines.stream import C_OP, C_REQ, DMC_ISSUE
from repro.engines.stream import StreamMms
from repro.queueing.freelist import FreeList
from repro.queueing.packet_queues import PacketQueueManager, SegmentInfo

#: A feeder factory: given the feeder's (restored) observation tape,
#: build the feeder generator with its environment reads wired through
#: that tape.
FeederFactory = Callable[[Tape], Iterator[Any]]


def snapshot_stream(eng: StreamMms) -> Dict[str, Any]:
    """Serialize the complete mutable state of ``eng`` (see module
    docstring).  Requires every feeder to be a
    :class:`CountedFeeder` -- i.e. the run was driven by a
    checkpoint-aware driver, not a plain harness."""
    # ---- command identity table ---------------------------------
    cmds: List[list] = []
    index: Dict[int, int] = {}

    def cmd_id(cmd: list) -> int:
        key = id(cmd)
        idx = index.get(key)
        if idx is None:
            idx = index[key] = len(cmds)
            cmds.append(cmd)
        return idx

    fifo_ids = [[cmd_id(c) for c in fifo] for fifo in eng._fifos]
    pending = [None if p is None else [p[0], cmd_id(p[1])]
               for p in eng._pending]
    cur_id = None if eng._cur is None else cmd_id(eng._cur)
    done_ids = [cmd_id(c) for c in eng._done]

    req_owner = {id(c[C_REQ]): i for i, c in enumerate(cmds)
                 if c[C_REQ] is not None}

    def req_id(req: list) -> int:
        try:
            return req_owner[id(req)]
        except KeyError:
            raise CheckpointError(
                "DMC request not owned by any live command "
                "(engine state is inconsistent)") from None

    serialized_cmds = []
    for c in cmds:
        row = [c[0].value] + list(c[1:C_REQ])
        req = c[C_REQ]
        row.append(None if req is None else list(req))
        serialized_cmds.append(row)

    # ---- feeders ------------------------------------------------
    feeders = []
    for gen, port in zip(eng._feeders, eng._feeder_port):
        if not isinstance(gen, CountedFeeder):
            raise CheckpointError(
                "engine feeders are raw generators (not CountedFeeder): "
                "only runs driven by repro.checkpoint.runs are "
                "checkpointable -- the plain harnesses carry no "
                "checkpoint machinery by design")
        st = gen.state_dict()
        st["port"] = port
        feeders.append(st)

    pqm = eng.pqm
    mem = pqm.mem
    sram = mem._sram
    state: Dict[str, Any] = {
        "now": eng.now,
        "seq": eng._seq,
        "wakes": [list(w) for w in eng._wakes],
        "commands": serialized_cmds,
        "fifos": fifo_ids,
        "pending": pending,
        "rr_next": eng._rr_next,
        "serve_waiting": eng._serve_waiting,
        "cur": cur_id,
        "commands_executed": eng.commands_executed,
        "done": done_ids,
        "dmc": {
            "bank_free": list(eng._bank_free),
            "last_islot": eng._last_islot,
            "last_was_read": eng._last_was_read,
            "queue": [req_id(r) for r in eng._dmc_queue],
            "step": None if eng._dmc_step is None else list(eng._dmc_step),
            "req": None if eng._dmc_req is None else req_id(eng._dmc_req),
        },
        "pqm": {
            "words": {str(a): v for a, v in sram._words.items()},
            "sram_counts": [sram.read_count, sram.write_count],
            "reads": dict(mem.reads_by_region),
            "writes": dict(mem.writes_by_region),
            "seg_free": _freelist_state(pqm.seg_free),
            "desc_free": _freelist_state(pqm.desc_free),
            "shadow": {str(slot): [s.slot, s.eop, s.length, s.pid, s.index]
                       for slot, s in pqm._seg_shadow.items()},
            "open_segments": {str(f): n
                              for f, n in pqm._open_segments.items()},
            "queued_packets": list(pqm._queued_packets),
            "queued_segments": list(pqm._queued_segments),
        },
        "policy": None if eng.policy is None else eng.policy.state_dict(),
        "feeders": feeders,
    }
    return state


def restore_stream(eng: StreamMms, state: Dict[str, Any],
                   factories: Sequence[FeederFactory]) -> None:
    """Restore :func:`snapshot_stream` output into a *freshly
    constructed* engine of the identical config.

    ``factories`` rebuild the feeder generators, one per recorded
    feeder in attach order; each is fast-forwarded on its restored tape
    to the recorded suspension point.  ``add_feeder`` is deliberately
    bypassed: the restored wake heap already holds every pending feeder
    wake (scheduling new ones would double-run the feeders).
    """
    if eng._feeders or eng._wakes or eng._done or eng.now != 0:
        raise CheckpointError(
            "restore_stream needs a freshly constructed engine")
    if len(factories) != len(state["feeders"]):
        raise CheckpointError(
            f"checkpoint has {len(state['feeders'])} feeders, caller "
            f"provided {len(factories)} factories")

    # ---- command identity table ---------------------------------
    cmds: List[list] = []
    for row in state["commands"]:
        cmd = [CommandType(row[0])] + list(row[1:C_REQ])
        req = row[C_REQ]
        cmd.append(None if req is None else list(req))
        cmds.append(cmd)

    eng._fifos = [deque(cmds[i] for i in ids) for ids in state["fifos"]]
    eng._pending = [None if p is None else (p[0], cmds[p[1]])
                    for p in state["pending"]]
    eng._rr_next = state["rr_next"]
    eng._serve_waiting = state["serve_waiting"]
    cur_id = state["cur"]
    eng._cur = None if cur_id is None else cmds[cur_id]
    eng._cur_info = None if eng._cur is None \
        else eng._opinfo[eng._cur[C_OP]]
    eng.commands_executed = state["commands_executed"]
    eng._done = [cmds[i] for i in state["done"]]

    dmc = state["dmc"]
    eng._bank_free = list(dmc["bank_free"])
    eng._last_islot = dmc["last_islot"]
    eng._last_was_read = dmc["last_was_read"]
    eng._dmc_queue = [_owned_req(cmds, i) for i in dmc["queue"]]
    step = dmc["step"]
    eng._dmc_step = None if step is None else (step[0], step[1])
    eng._dmc_req = None if dmc["req"] is None \
        else _owned_req(cmds, dmc["req"])
    if (eng._dmc_req is None) != (step is None or step[1] != DMC_ISSUE):
        raise CheckpointError(
            "DMC issue step and issuing request disagree (corrupt "
            "checkpoint)")

    # the serialized heap list is already in heap order -- rebuilding
    # it as tuples preserves the invariant without re-heapifying
    eng._wakes = [tuple(w) for w in state["wakes"]]
    eng.now = state["now"]
    eng._seq = state["seq"]

    _restore_pqm(eng.pqm, state["pqm"])
    if (state["policy"] is None) != (eng.policy is None):
        raise CheckpointError(
            "checkpoint and engine disagree about having a policy")
    if eng.policy is not None:
        eng.policy.load_state(state["policy"])

    # ---- feeders (bypassing add_feeder; see docstring) ----------
    for fst, factory in zip(state["feeders"], factories):
        tape = Tape()
        feeder = CountedFeeder(factory(tape), tape)
        feeder.load_state(fst)
        eng._feeders.append(feeder)
        eng._feeder_port.append(fst["port"])


def _owned_req(cmds: List[list], cmd_idx: int) -> list:
    req = cmds[cmd_idx][C_REQ]
    if req is None:
        raise CheckpointError(
            f"DMC queue references command {cmd_idx} which has no "
            f"request (corrupt checkpoint)")
    return req


def _freelist_state(fl: FreeList) -> List[Any]:
    return [fl._reg_head, fl._reg_tail, fl.free_count, fl._virgin]


def _restore_pqm(pqm: PacketQueueManager, st: Dict[str, Any]) -> None:
    mem = pqm.mem
    sram = mem._sram
    sram._words = {int(a): v for a, v in st["words"].items()}
    sram.read_count, sram.write_count = st["sram_counts"]
    mem.reads_by_region = dict(st["reads"])
    mem.writes_by_region = dict(st["writes"])
    for fl, fs in ((pqm.seg_free, st["seg_free"]),
                   (pqm.desc_free, st["desc_free"])):
        fl._reg_head, fl._reg_tail, fl.free_count, fl._virgin = fs
    pqm._seg_shadow = {
        int(slot): SegmentInfo(slot=s[0], eop=s[1], length=s[2],
                               pid=s[3], index=s[4])
        for slot, s in st["shadow"].items()}
    pqm._open_segments = {int(f): n
                          for f, n in st["open_segments"].items()}
    pqm._queued_packets = list(st["queued_packets"])
    pqm._queued_segments = list(st["queued_segments"])
