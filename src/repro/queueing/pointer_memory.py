"""Pointer memory: a region-structured, access-traced SRAM view.

Queue managers keep *pointers* in SRAM because "the pointer manipulation
tasks need short accesses compared to the burst data accesses needed for
buffering network packets" (Section 4).  Every data-structure operation
in :mod:`repro.queueing` goes through a :class:`PointerMemory`, which

* maps named regions (segment links, packet descriptors, queue table,
  free-list anchors) onto one flat :class:`~repro.mem.sram.ZbtSram`,
* counts reads/writes per region -- access by access for the cold
  operations, once per operation (:meth:`PointerMemory.charge`) for the
  per-command hot ones,
* optionally records an ordered :class:`AccessRecord` trace of one
  operation, which the platform models convert into cycles (one PLB
  transaction per access on the reference NPU; one pipelined SRAM cycle
  in the MMS).

This is the mechanism that keeps Tables 3 and 4 honest: the cycle counts
are derived from the access sequences of real data-structure code, not
hard-coded.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, Iterable, List, Optional, Tuple, Union

from repro.mem.sram import ZbtSram
from repro.mem.timing import ZbtTiming


@dataclass(frozen=True)
class Region:
    """A named, bounds-checked window of the pointer SRAM."""

    name: str
    base: int
    words: int

    def addr(self, index: int) -> int:
        if not 0 <= index < self.words:
            raise self.index_error(index)
        return self.base + index

    def index_error(self, index: int) -> IndexError:
        """The error every bounds check of this region raises."""
        return IndexError(f"region {self.name!r}: index {index} out of "
                          f"range [0, {self.words})")


@dataclass(frozen=True)
class AccessRecord:
    """One pointer-memory access in an operation trace."""

    kind: str  # "R" or "W"
    region: str
    index: int


class _CountOnlyTrace(List[AccessRecord]):
    """Sentinel type for a count-only trace in progress (no records
    kept).  Subclassing the record list keeps ``_trace``'s type uniform
    without paying a cast on the access hot path; the ``is`` guards in
    :meth:`PointerMemory.read`/:meth:`~PointerMemory.write`/
    :meth:`~PointerMemory.charge` ensure the sentinel instance itself is
    never appended to."""


#: Sentinel marking a count-only trace in progress (identity-compared).
_COUNT_TRACE = _CountOnlyTrace()


class AccessPattern:
    """One operation branch's fixed access sequence, tallied once.

    Built by :func:`access_pattern`; :meth:`PointerMemory.charge`
    accounts a whole branch with it in one call.  Compared and hashed by
    identity: a pointer memory keys its pending charges by pattern.
    """

    __slots__ = ("steps", "reads", "writes", "num_reads", "num_writes")

    def __init__(self, steps: Tuple[Tuple[str, str], ...]) -> None:
        reads: Dict[str, int] = {}
        writes: Dict[str, int] = {}
        for kind, region in steps:
            if kind not in ("R", "W"):
                raise ValueError(f"access kind must be 'R' or 'W': {kind!r}")
            tally = reads if kind == "R" else writes
            tally[region] = tally.get(region, 0) + 1
        #: ``(kind, region)`` per access, in access order
        self.steps = steps
        #: ``(region, count)`` per region read / written
        self.reads = tuple(reads.items())
        self.writes = tuple(writes.items())
        self.num_reads = sum(reads.values())
        self.num_writes = sum(writes.values())


def access_pattern(*steps: str) -> AccessPattern:
    """An :class:`AccessPattern` from ``"R region"``/``"W region"`` steps
    in access order."""
    pairs: List[Tuple[str, str]] = []
    for step in steps:
        kind, region = step.split()
        pairs.append((kind, region))
    return AccessPattern(tuple(pairs))


class PointerMemory:
    """Region-structured SRAM with per-region counters and op tracing."""

    def __init__(self, timing: ZbtTiming = ZbtTiming()) -> None:
        self._regions: Dict[str, Region] = {}
        self._next_base = 0
        self._sram: Optional[ZbtSram] = None
        self._timing = timing
        self._trace: Optional[List[AccessRecord]] = None
        self._trace_n = 0
        #: When True, :meth:`start_trace` records only the access
        #: *count* (``end_trace`` returns a ``range`` of equal length)
        #: instead of materializing :class:`AccessRecord` objects.  The
        #: per-region counters advance identically either way; the
        #: batched engine enables this on its hot path because the
        #: published scenarios consult only trace lengths and counters.
        self.count_only_traces = False
        self._reads: Dict[str, int] = {}
        self._writes: Dict[str, int] = {}
        #: pattern -> times charged since the last fold into the
        #: per-region counters (see :meth:`charge`)
        self._charged: DefaultDict[AccessPattern, int] = defaultdict(int)

    # ------------------------------------------------------------- layout

    def add_region(self, name: str, words: int) -> Region:
        """Allocate a region; must happen before :meth:`freeze`."""
        if self._sram is not None:
            raise RuntimeError("layout is frozen; cannot add regions")
        if name in self._regions:
            raise ValueError(f"region {name!r} already exists")
        if words < 1:
            raise ValueError(f"region {name!r}: words must be >= 1, got {words}")
        region = Region(name=name, base=self._next_base, words=words)
        self._regions[name] = region
        self._next_base += words
        self._reads[name] = 0
        self._writes[name] = 0
        return region

    def freeze(self) -> None:
        """Finalize the layout and allocate the backing SRAM."""
        if self._sram is not None:
            raise RuntimeError("layout already frozen")
        if not self._regions:
            raise RuntimeError("no regions defined")
        self._sram = ZbtSram(self._next_base, timing=self._timing)

    @property
    def total_words(self) -> int:
        return self._next_base

    def region(self, name: str) -> Region:
        return self._regions[name]

    @property
    def sram(self) -> ZbtSram:
        """The backing SRAM (frozen layouts only).

        Hot operations work on its word store, ``sram._words``, by
        absolute address (``region(name).base + index``) and then
        :meth:`charge` their accesses.  Fetch the store afresh for every
        operation: checkpoint restore replaces it.
        """
        return self._require_frozen()

    # ------------------------------------------------------------- access

    # The per-command hot operations (PQM enqueue/dequeue and the
    # register-anchor free list) do not come through read/write: they
    # work on the SRAM word store directly and account each operation
    # once through :meth:`charge`, with the access pattern of the branch
    # they actually ran.  read/write serve every other (cold) operation;
    # they touch the store and counters directly too, since the region
    # bounds check subsumes the SRAM bounds check (the frozen layout
    # spans exactly ``size_words``) and the counter arithmetic is
    # identical.

    def read(self, region: str, index: int) -> int:
        sram = self._sram
        if sram is None:
            raise RuntimeError("layout not frozen; call freeze() first")
        r = self._regions[region]
        if not 0 <= index < r.words:
            raise r.index_error(index)
        sram.read_count += 1
        value = sram._words.get(r.base + index, 0)
        self._reads[region] += 1
        trace = self._trace
        if trace is not None:
            if trace is _COUNT_TRACE:
                self._trace_n += 1
            else:
                trace.append(AccessRecord("R", region, index))
        return value

    def write(self, region: str, index: int, value: int) -> None:
        sram = self._sram
        if sram is None:
            raise RuntimeError("layout not frozen; call freeze() first")
        r = self._regions[region]
        if not 0 <= index < r.words:
            raise r.index_error(index)
        sram.write_count += 1
        sram._words[r.base + index] = value
        self._writes[region] += 1
        trace = self._trace
        if trace is not None:
            if trace is _COUNT_TRACE:
                self._trace_n += 1
            else:
                trace.append(AccessRecord("W", region, index))

    def peek(self, region: str, index: int) -> int:
        """Uncounted, untraced read -- for debug walks and invariant
        checks only; never use from modelled code paths."""
        sram = self._require_frozen()
        r = self._regions[region]
        if not 0 <= index < r.words:
            raise r.index_error(index)
        return sram._words.get(r.base + index, 0)

    def charge(self, pattern: AccessPattern, indices: Tuple[int, ...]
               ) -> None:
        """Account one operation's accesses in a single call.

        The caller has already performed them on the word store (see
        :attr:`sram`), bounds-checking every index; ``indices`` are the
        region-relative word indexes of ``pattern``'s steps, in order.
        The SRAM totals and the trace in progress (if any) advance
        exactly as the equivalent :meth:`read`/:meth:`write` sequence
        would advance them; the per-region counters only count the
        charge here and fold it in when next read
        (:attr:`reads_by_region`, :attr:`writes_by_region`).
        """
        sram = self._sram
        if sram is None:
            raise RuntimeError("layout not frozen; call freeze() first")
        sram.read_count += pattern.num_reads
        sram.write_count += pattern.num_writes
        self._charged[pattern] += 1
        trace = self._trace
        if trace is not None:
            if trace is _COUNT_TRACE:
                self._trace_n += len(pattern.steps)
            else:
                trace.extend([AccessRecord(kind, region, index)
                              for (kind, region), index
                              in zip(pattern.steps, indices, strict=True)])

    # ------------------------------------------------------------ tracing

    def start_trace(self) -> None:
        """Begin recording accesses of one operation.

        With :attr:`count_only_traces` set, only the access count is
        kept and :meth:`end_trace` returns a ``range`` of equal length
        (``len()``-compatible with the record list it replaces).
        """
        if self.count_only_traces:
            self._trace = _COUNT_TRACE
            self._trace_n = 0
        else:
            self._trace = []

    def end_trace(self) -> Union[List[AccessRecord], range]:
        """Stop recording and return the ordered access list (or its
        ``range`` stand-in under :attr:`count_only_traces`)."""
        if self._trace is None:
            raise RuntimeError("end_trace without start_trace")
        trace, self._trace = self._trace, None
        if trace is _COUNT_TRACE:
            return range(self._trace_n)
        return trace

    # ------------------------------------------------------- bulk ops

    def bulk_update(self, region: str, pairs: Iterable[Tuple[int, int]],
                    extra_reads: int = 0,
                    extra_writes: int = 0) -> None:
        """Apply ``(index, value)`` writes of one *bulk* operation.

        A bulk operation replaces a per-word loop whose access totals
        are known in closed form: each pair counts as one write, and
        ``extra_reads`` / ``extra_writes`` account the loop's remaining
        accesses (reads whose values the closed form already knows,
        overwrites the final values subsume).  Counters end up exactly
        where the per-word loop would leave them; traces must not be
        active (bulk operations model setup work, not priced commands).
        """
        if self._trace is not None:
            raise RuntimeError("bulk_update inside an access trace")
        if extra_reads < 0 or extra_writes < 0:
            raise ValueError("extra_reads/extra_writes must be >= 0")
        sram = self._require_frozen()
        r = self._regions[region]
        base, words = r.base, r.words
        pairs = pairs if type(pairs) is list else list(pairs)
        n = len(pairs)
        if pairs:
            # one bounds scan over the region-relative indexes; the
            # frozen layout guarantees the rebased addresses fit, so the
            # store is a single C-level dict.update
            idxs = [p[0] for p in pairs]
            lo, hi = min(idxs), max(idxs)
            if lo < 0 or hi >= words:
                raise r.index_error(lo if lo < 0 else hi)
            if base:
                pairs = [(i + base, v) for i, v in pairs]
            sram._words.update(pairs)
        sram.read_count += extra_reads
        sram.write_count += n + extra_writes
        self._reads[region] += extra_reads
        self._writes[region] += n + extra_writes

    # ----------------------------------------------------------- counters

    @property
    def reads_by_region(self) -> Dict[str, int]:
        """Reads per region name (a live dict)."""
        self._fold_charged()
        return self._reads

    @reads_by_region.setter
    def reads_by_region(self, counts: Dict[str, int]) -> None:
        self._fold_charged()
        self._reads = counts

    @property
    def writes_by_region(self) -> Dict[str, int]:
        """Writes per region name (a live dict)."""
        self._fold_charged()
        return self._writes

    @writes_by_region.setter
    def writes_by_region(self, counts: Dict[str, int]) -> None:
        self._fold_charged()
        self._writes = counts

    @property
    def total_reads(self) -> int:
        return sum(self.reads_by_region.values())

    @property
    def total_writes(self) -> int:
        return sum(self.writes_by_region.values())

    @property
    def total_accesses(self) -> int:
        return self.total_reads + self.total_writes

    def reset_counters(self) -> None:
        self._charged.clear()
        for name in self._reads:
            self._reads[name] = 0
            self._writes[name] = 0
        if self._sram is not None:
            self._sram.reset_counters()

    def _fold_charged(self) -> None:
        """Add the pending charges to the per-region counters."""
        charged = self._charged
        if not charged:
            return
        reads, writes = self._reads, self._writes
        for pattern, times in charged.items():
            for region, n in pattern.reads:
                reads[region] += n * times
            for region, n in pattern.writes:
                writes[region] += n * times
        charged.clear()

    # ---------------------------------------------------------- internals

    def _require_frozen(self) -> ZbtSram:
        if self._sram is None:
            raise RuntimeError("layout not frozen; call freeze() first")
        return self._sram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PointerMemory({len(self._regions)} regions, "
            f"{self._next_base} words)"
        )
