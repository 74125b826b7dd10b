"""The assembled Memory Management System (Figure 2) and load harness.

The MMS couples the Internal Scheduler (per-port command FIFOs), the DQM
(one command in execution at a time -- the execution latency *is* the
processing rate) and the DMC (data transfers overlapped with pointer
work).  The load harness reproduces the Table 5 experiment: four ports
submit synchronized command volleys at a configured aggregate Gbps, and
every command's delay is decomposed into FIFO + execution + data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.commands import Command
from repro.core.dmc import DataMemoryController
from repro.core.dqm import DataQueueManager
from repro.core.latency import LatencyBreakdown
from repro.core.reassembly import ReassemblyBlock
from repro.core.scheduler import DEFAULT_PORTS, InternalScheduler, PortConfig
from repro.core.segmentation import SegmentationBlock
from repro.policies import BufferPolicy, PolicySpec, make_policy
from repro.queueing import PacketQueueManager
from repro.sim import Clock, Simulator
from repro.sim.clock import SEC
from repro.sim.kernel import make_simulator

#: Bits moved per MMS operation (one 64-byte segment).
BITS_PER_OP = 512


@dataclass(frozen=True)
class MmsConfig:
    """MMS build-time configuration.

    Defaults are the paper's: 125 MHz conservative FPGA clock, 32 K
    flows, 8-bank DDR data memory, small per-port command FIFOs.
    """

    clock_mhz: int = 125
    num_flows: int = 32 * 1024
    num_segments: int = 64 * 1024
    num_descriptors: int = 32 * 1024
    num_banks: int = 8
    reorder_window: int = 4
    dmc_pipeline_ns: int = 135
    ports: tuple[PortConfig, ...] = DEFAULT_PORTS
    strict_microcode: bool = False
    keep_samples: bool = False
    #: Ablation A5: overlap data transfers with pointer work (the MMS
    #: design point); False serializes them.
    overlap_data: bool = True
    #: Buffer-management policy (None = legacy: enqueue-on-full raises
    #: OutOfBuffersError).  Sized to ``num_segments`` at build time.
    policy: Optional[PolicySpec] = None
    #: Seed for stochastic policies (RED's private RNG).
    policy_seed: int = 2005
    #: Retain the full DropRecord stream, not just counters.
    policy_records: bool = False

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if self.num_flows < 1 or self.num_segments < 1:
            raise ValueError("num_flows and num_segments must be >= 1")


class MMS:
    """The Memory Management System block."""

    def __init__(self, config: MmsConfig = MmsConfig(),
                 sim: Optional[Simulator] = None,
                 policy: Optional[BufferPolicy] = None,
                 probe=None) -> None:
        self.config = config
        self.sim = sim or Simulator()
        self.clock = Clock(config.clock_mhz)
        #: Buffer-management policy: an explicit instance wins, else one
        #: is built from ``config.policy`` sized to the segment buffer.
        if policy is None and config.policy is not None:
            policy = make_policy(config.policy, capacity=config.num_segments,
                                 seed=config.policy_seed,
                                 keep_records=config.policy_records)
        self.policy = policy
        if self.policy is not None:
            self.policy.now_fn = lambda: self.sim.now
        self.pqm = PacketQueueManager(num_flows=config.num_flows,
                                      num_segments=config.num_segments,
                                      num_descriptors=config.num_descriptors,
                                      policy=self.policy)
        self.breakdown = LatencyBreakdown(self.clock,
                                          keep_samples=config.keep_samples)
        self.dmc = DataMemoryController(self.sim, self.clock,
                                        num_banks=config.num_banks,
                                        reorder_window=config.reorder_window,
                                        pipeline_overhead_ns=config.dmc_pipeline_ns)
        #: Optional telemetry probe (:mod:`repro.telemetry`); forwarded
        #: to the DQM, which swaps in its probed dispatch/finalize
        #: variants only when one is present.
        self.probe = probe
        self.dqm = DataQueueManager(self.sim, self.clock, self.pqm, self.dmc,
                                    self.breakdown,
                                    strict_microcode=config.strict_microcode,
                                    overlap_data=config.overlap_data,
                                    probe=probe)
        self.scheduler = InternalScheduler(self.sim, config.ports)
        self.segmentation = SegmentationBlock(config.num_flows)
        self.reassembly = ReassemblyBlock()
        self._serve_proc = self.sim.spawn(self._serve(), name="mms.dqm")

    # ----------------------------------------------------------- serving

    def _serve(self):
        while True:
            if not self.scheduler.has_pending:
                yield self.scheduler.wait_for_command()
                continue
            cmd = self.scheduler.pop_next()
            yield from self.dqm.execute(cmd)

    # -------------------------------------------------------------- API

    def submit(self, port: int, cmd: Command):
        """Blocking command submit (generator; backpressure-aware)."""
        yield from self.scheduler.submit(port, cmd)

    def try_submit(self, port: int, cmd: Command) -> bool:
        """Non-blocking command submit."""
        return self.scheduler.try_submit(port, cmd)

    def submit_and_wait(self, port: int, cmd: Command):
        """Blocking submit that also waits for execution (generator).

        ``result = yield from mms.submit_and_wait(port, cmd)`` returns
        the command's functional result (e.g. the dequeued
        :class:`~repro.queueing.packet_queues.SegmentInfo`) once the DQM
        has executed it.
        """
        cmd.completion = self.sim.event(name=f"cmd{cmd.cid}.done")
        yield from self.scheduler.submit(port, cmd)
        result = yield cmd.completion
        return result

    def apply(self, cmd: Command):
        """Zero-time functional application of a command (no simulated
        clock, no FIFO/DMC).  The application models use this to express
        their logic against the MMS command set; throughput questions go
        through :meth:`submit` instead."""
        result, _trace_len, _slot = self.dqm._dispatch(cmd)
        return result

    def prefill(self, flows: Iterator[int], packets_per_flow: int,
                segments_per_packet: int = 1) -> int:
        """Functionally preload queues (no simulated time): the steady
        state backlog the Table 5 experiment dequeues from.  Delegates
        to :meth:`PacketQueueManager.bulk_prefill`, whose closed form
        is state-identical to the historical per-segment loop."""
        return self.pqm.bulk_prefill(flows, packets_per_flow,
                                     segments_per_packet)

    @property
    def commands_executed(self) -> int:
        return self.dqm.commands_executed

    @property
    def drop_stats(self):
        """The policy's accept/drop/push-out counters (None without a
        policy)."""
        return self.policy.stats if self.policy is not None else None

    def ops_per_second(self, elapsed_ps: int) -> float:
        if elapsed_ps <= 0:
            return 0.0
        return self.commands_executed * SEC / elapsed_ps

    def achieved_gbps(self, elapsed_ps: int) -> float:
        return self.ops_per_second(elapsed_ps) * BITS_PER_OP / 1e9


# ======================================================== load experiment

@dataclass
class MmsLoadResult:
    """One Table 5 row: delay decomposition at an offered load."""

    offered_gbps: float
    completed_ops: int
    elapsed_ps: int
    fifo_cycles: float
    execution_cycles: float
    data_cycles: float
    #: True mean submit-to-completion latency (see LatencyBreakdown);
    #: equals the additive total only when pointer/data work serializes.
    end_to_end_cycles: float = 0.0
    #: Execution engine the run used ("fast" = calendar-queue kernel,
    #: "reference" = heapq ordering spec); results are identical.
    engine: str = "fast"

    @property
    def total_cycles(self) -> float:
        return self.fifo_cycles + self.execution_cycles + self.data_cycles

    @property
    def achieved_gbps(self) -> float:
        if self.elapsed_ps <= 0:
            return 0.0
        return self.completed_ops * SEC / self.elapsed_ps * BITS_PER_OP / 1e9

    @property
    def achieved_mops(self) -> float:
        if self.elapsed_ps <= 0:
            return 0.0
        return self.completed_ops * SEC / self.elapsed_ps / 1e6

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MmsLoadResult({self.offered_gbps} Gbps: fifo={self.fifo_cycles:.1f} "
            f"exec={self.execution_cycles:.1f} data={self.data_cycles:.1f} "
            f"total={self.total_cycles:.1f})"
        )


def run_load(offered_gbps: float, num_volleys: int = 2500,
             config: MmsConfig = MmsConfig(),
             active_flows: int = 512,
             warmup_volleys: int = 200,
             burst_len: int = 4,
             burst_prob: float = 0.25,
             seed: int = 2005,
             engine: str = "fast",
             probe=None) -> MmsLoadResult:
    """The Table 5 experiment at one offered load.

    Four ports submit synchronized volleys -- one command per port per
    volley period, the arrival pattern that motivates the per-port FIFOs
    ("bursts of commands that may arrive simultaneously").  With
    probability ``burst_prob`` a port emits ``burst_len`` back-to-back
    commands and skips the corresponding later volleys (same average
    rate, burstier arrivals -- real interfaces deliver segments in
    clumps).  The In and CPU0 ports enqueue, the Out and CPU1 ports
    dequeue, so the command mix is half 10-cycle enqueues, half 11-cycle
    dequeues: the paper's 10.5-cycle average execution latency.  Queues
    are prefilled so dequeues always find data.  Burst parameters and the
    DMC pipeline constant are calibrated per EXPERIMENTS.md.

    ``engine`` selects the execution path: ``"fast"`` (default) runs the
    batched command-stream engine (:mod:`repro.engines`) when it claims
    ``config`` -- falling back to the calendar-queue kernel otherwise --
    and ``"reference"`` the heapq ordering spec; the paths are
    trace-identical, only wall-clock differs.  The kernel names
    ``"calendar"``/``"heapq"`` select a DES kernel explicitly.
    """
    if offered_gbps <= 0:
        raise ValueError(f"offered_gbps must be positive, got {offered_gbps}")
    if active_flows < 4:
        raise ValueError("active_flows must be >= 4")
    if not 0.0 <= burst_prob <= 1.0:
        raise ValueError(f"burst_prob must be in [0,1], got {burst_prob}")
    if burst_len < 1:
        raise ValueError(f"burst_len must be >= 1, got {burst_len}")
    from repro.core.workloads import (LOAD_LAG_VOLLEYS, drive_port,
                                      load_feed_ops)

    if engine == "fast":
        from repro.engines import stream_run_load, stream_supports
        if stream_supports(config) is None:
            return stream_run_load(
                offered_gbps, num_volleys=num_volleys, config=config,
                active_flows=active_flows, warmup_volleys=warmup_volleys,
                burst_len=burst_len, burst_prob=burst_prob, seed=seed,
                probe=probe)

    mms = MMS(config, sim=make_simulator(engine), probe=probe)
    sim = mms.sim
    # each flow is enqueued once per active_flows/2 volleys; the dequeue
    # stream lags by LOAD_LAG_VOLLEYS, so a small per-flow backlog
    # suffices
    mms.prefill(range(active_flows),
                packets_per_flow=(2 * LOAD_LAG_VOLLEYS) // active_flows + 4)

    volley_period_ps = round(4 * BITS_PER_OP / offered_gbps * 1000)

    def feed(port: int, enqueue: bool, phase: int):
        ops = load_feed_ops(lambda: sim.now, port, enqueue, phase,
                            num_volleys, volley_period_ps, active_flows,
                            burst_len, burst_prob, seed)
        return drive_port(mms, port, ops)

    sim.spawn(feed(0, True, 0), name="in")
    sim.spawn(feed(1, False, 0), name="out")
    sim.spawn(feed(2, True, 1), name="cpu0")
    sim.spawn(feed(3, False, 1), name="cpu1")

    # fresh recorders after warm-up for clean steady-state means
    horizon = (num_volleys + 64) * volley_period_ps + 10 * SEC // 1000
    warm_breakdown = LatencyBreakdown(mms.clock, keep_samples=config.keep_samples)
    original_record_parts = mms.breakdown.record_parts
    state = {"t0": None, "t_last": 0}

    # Hook the parts-level recorder every DQM finalize feeds.
    def recording_with_warmup(fifo_cycles, execution_cycles, data_cycles,
                              end_to_end_cycles=0.0):
        original_record_parts(fifo_cycles, execution_cycles, data_cycles,
                              end_to_end_cycles)
        state["t_last"] = sim.now
        if mms.breakdown.count == warmup_volleys * 4:
            state["t0"] = sim.now
        if state["t0"] is not None and mms.breakdown.count > warmup_volleys * 4:
            warm_breakdown.record_parts(fifo_cycles, execution_cycles,
                                        data_cycles, end_to_end_cycles)

    mms.breakdown.record_parts = recording_with_warmup  # type: ignore[assignment]
    sim.run(until_ps=horizon)

    elapsed = state["t_last"] - (state["t0"] or 0)
    use = warm_breakdown if warm_breakdown.count else mms.breakdown
    row = use.row()
    return MmsLoadResult(
        offered_gbps=offered_gbps,
        completed_ops=use.count,
        elapsed_ps=elapsed,
        fifo_cycles=row["fifo"],
        execution_cycles=row["execution"],
        data_cycles=row["data"],
        end_to_end_cycles=use.end_to_end.mean,
        engine=engine,
    )


def run_saturation(num_commands: int = 8000,
                   config: MmsConfig = MmsConfig(),
                   active_flows: int = 512,
                   engine: str = "fast",
                   probe=None) -> MmsLoadResult:
    """Headline experiment: backlogged ports, maximum command rate.

    Reproduces "The MMS can handle one operation per 84 ns or 12 Mops/sec
    operating at 125MHz ... the overall bandwidth the MMS supports is
    6.145 Gbps" (our model: 1/10.5 cycles = 11.9 Mops ~ 6.1 Gbps).
    """
    from repro.core.workloads import drive_port, saturation_feed_ops

    if engine == "fast":
        from repro.engines import stream_run_saturation, stream_supports
        if stream_supports(config) is None:
            return stream_run_saturation(num_commands=num_commands,
                                         config=config,
                                         active_flows=active_flows,
                                         probe=probe)

    mms = MMS(config, sim=make_simulator(engine), probe=probe)
    sim = mms.sim
    per_port = num_commands // 4
    mms.prefill(range(active_flows), packets_per_flow=per_port * 2 // active_flows + 2)

    def feed(port: int, enqueue: bool, phase: int):
        return drive_port(mms, port,
                          saturation_feed_ops(enqueue, phase, per_port,
                                              active_flows))

    sim.spawn(feed(0, True, 0), name="in")
    sim.spawn(feed(1, False, 0), name="out")
    sim.spawn(feed(2, True, 1), name="cpu0")
    sim.spawn(feed(3, False, 1), name="cpu1")
    sim.run(until_ps=60 * SEC)
    row = mms.breakdown.row()
    return MmsLoadResult(
        offered_gbps=float("inf"),
        completed_ops=mms.breakdown.count,
        elapsed_ps=_last_execution_ps(mms),
        fifo_cycles=row["fifo"],
        execution_cycles=row["execution"],
        data_cycles=row["data"],
        end_to_end_cycles=mms.breakdown.end_to_end.mean,
        engine=engine,
    )


def _last_execution_ps(mms: MMS) -> int:
    """Time span of command execution (saturation rate denominator)."""
    # the DQM runs back-to-back under saturation; its executed count and
    # the average latency bound the span tightly
    return round(mms.commands_executed
                 * mms.breakdown.execution.mean
                 * mms.clock.period_ps)


def figure2_diagram() -> str:
    """ASCII rendering of Figure 2 (the MMS architecture)."""
    return """\
               Figure 2: MMS Architecture

            +--------+        +--------+
            |  DRAM  |        |  SRAM  |
            | (data) |        | (ptrs) |
            +---+----+        +----+---+
                |                  |
          +-----+-----+      +-----+------+
          |    DMC    |<---->|    Data    |
          | (data mem |      |   Queue    |
          |  control) |      |  Manager   |
          +-----+-----+      +-----+------+
                |                  ^
   =============|==================|==== MMS ====
      |         |            +-----+------+     |
 +----+------+  |            |  Internal  |     |
 | Segmenta- |  |            | Scheduler  |     |
 |   tion    |  |            +-+--+--+--+-+     |
 +----+------+  |              |1 |2 |3 |4      |
      |    +----+-----+        |  |  |  |       |
      |    | Reassem- |     [command FIFOs]     |
      |    |   bly    |        |  |  |  |       |
      |    +----+-----+        |  |  |  |       |
 -----+---------+--------------+--+--+--+-------
     IN        OUT            IN OUT CPU CPU
              DATA ===        COMMANDS ---  BACKPRESSURE <-->
"""
