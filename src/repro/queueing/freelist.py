"""Free-list management over pointer memory.

"A free-list keeps the free parts of the memory, at any given time"
(Section 5.2).  The free list is itself a single-linked list threaded
through the ``next`` words of unused slots, so pop ("Dequeue Free List")
and push ("Enqueue Free List") are the first sub-operations of every
enqueue/dequeue (Table 3 prices them separately).

The head/tail anchors can live either in on-chip registers (the MMS
hardware keeps them in flip-flops -- zero SRAM accesses to consult) or in
SRAM words (the software implementations must load/store them), selected
with ``anchors_in_memory``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.queueing.pointer_memory import PointerMemory, access_pattern

#: Null link encoding (no slot 0 ambiguity: we bias stored links by +1).
NIL = 0


class OutOfBuffersError(RuntimeError):
    """Free list exhausted -- the buffer memory is full.

    Carries the occupancy at the moment of exhaustion so overload
    failures are diagnosable: ``slots_in_use`` of ``num_slots``.
    """

    def __init__(self, message: str, slots_in_use: int = -1,
                 num_slots: int = -1) -> None:
        super().__init__(message)
        self.slots_in_use = slots_in_use
        self.num_slots = num_slots


class FreeList:
    """Single-linked free list of buffer slots.

    Parameters
    ----------
    mem:
        Pointer memory; must contain a ``next`` region of >= ``num_slots``
        words plus (when ``anchors_in_memory``) a ``globals`` region with
        two words for the anchors.
    num_slots:
        Total buffer slots managed.
    anchors_in_memory:
        Whether head/tail anchors cost SRAM accesses (software) or are
        free registers (hardware).
    next_region / globals_region:
        Region names, overridable when several lists share one memory.
    """

    HEAD_WORD = 0
    TAIL_WORD = 1

    def __init__(self, mem: PointerMemory, num_slots: int,
                 anchors_in_memory: bool = True,
                 next_region: str = "next",
                 globals_region: str = "globals",
                 link_mask: Optional[int] = None) -> None:
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {num_slots}")
        self.mem = mem
        self.num_slots = num_slots
        self.anchors_in_memory = anchors_in_memory
        self.next_region = next_region
        self.globals_region = globals_region
        #: Mask applied to link words on pop.  Needed when whole queue
        #: chains are spliced onto the list (MMS delete-packet): interior
        #: words still carry packed metadata above the link field.
        self.link_mask = link_mask
        self._reg_head = NIL
        self._reg_tail = NIL
        self.free_count = 0
        self._initialized = False
        # True while the chain is exactly the boot-time sequential one
        # (0 -> 1 -> ... -> n-1); lets reserve() skip the chain walk
        self._virgin = False
        # the register-anchor pop/push access patterns (R next[head];
        # W next[slot] and, onto a non-empty list, W next[tail])
        self._pop_pattern = access_pattern(f"R {next_region}")
        self._push_patterns = (access_pattern(f"W {next_region}"),
                               access_pattern(f"W {next_region}",
                                              f"W {next_region}"))
        # the next region's base and extent, resolved by initialize()
        self._base = 0
        self._extent = 0

    # ------------------------------------------------------------ set-up

    def initialize(self) -> None:
        """Chain every slot into the free list (boot-time, not traced).

        Uses the pointer memory's bulk path: one write per word is
        accounted exactly as the historical per-word loop did, without
        paying a method call per slot (64 K segment buffers are built
        once per experiment run).
        """
        n = self.num_slots
        self.mem.bulk_update(self.next_region,
                             list(zip(range(n - 1), range(2, n + 1))))
        self.mem.bulk_update(self.next_region, [(n - 1, NIL)])
        region = self.mem.region(self.next_region)
        self._base, self._extent = region.base, region.words
        self._store_head(self._enc(0))
        self._store_tail(self._enc(n - 1))
        self.free_count = n
        self._initialized = True
        self._virgin = True

    # ---------------------------------------------------------- operation

    def pop(self) -> int:
        """Allocate one slot ("Dequeue Free List").

        Access pattern (anchors in memory): R head, R next[head], W head.
        With register anchors: R next[head] only -- the MMS per-command
        path, which is :meth:`take` plus one :meth:`PointerMemory.charge`.
        """
        mem = self.mem
        if not self.anchors_in_memory:
            slot = self.take(mem.sram._words)
            mem.charge(self._pop_pattern, (slot,))
            return slot
        self._require_init()
        head = self._load_head()
        if head == NIL:
            raise self._exhausted()
        self._virgin = False
        slot = head - 1
        nxt = mem.read(self.next_region, slot)
        if self.link_mask is not None:
            nxt &= self.link_mask
        self._store_head(nxt)
        if nxt == NIL:
            # list drained: the tail anchor would otherwise go stale
            # and a later push would splice onto an in-use slot
            self._store_tail(NIL)
        self.free_count -= 1
        return slot

    def take(self, words: Dict[int, int]) -> int:
        """Register-anchor pop straight off the SRAM word store ``words``
        (:attr:`PointerMemory.sram`'s ``_words``), uncharged.

        The caller charges its one access, ``R next[slot]`` on the
        returned slot, inside its own operation's single charge.
        """
        if not self._initialized:
            raise RuntimeError("free list not initialized; call initialize()")
        head = self._reg_head
        if head == NIL:
            raise self._exhausted()
        slot = head - 1
        if slot >= self._extent:
            raise self.mem.region(self.next_region).index_error(slot)
        self._virgin = False
        nxt = words.get(self._base + slot, 0)
        if self.link_mask is not None:
            nxt &= self.link_mask
        self._reg_head = nxt
        if nxt == NIL:
            self._reg_tail = NIL
        self.free_count -= 1
        return slot

    def reserve(self, count: int) -> List[int]:
        """Allocate ``count`` slots in one bulk walk (= ``count`` pops).

        Follows the free chain once, then accounts the accesses a pop
        loop would have made -- one ``next`` read per allocated slot,
        plus the anchor load/store traffic when the anchors live in
        memory -- so counters, anchor state and ``free_count`` are
        exactly where ``count`` :meth:`pop` calls would leave them.
        Raises :class:`OutOfBuffersError` when fewer than ``count``
        slots are free (before touching any state).
        """
        self._require_init()
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if count > self.free_count:
            in_use = self.num_slots - self.free_count
            raise OutOfBuffersError(
                f"cannot reserve {count} slots: {in_use} of "
                f"{self.num_slots} in use", slots_in_use=in_use,
                num_slots=self.num_slots)
        mem, region, mask = self.mem, self.next_region, self.link_mask
        if self._virgin and not self.anchors_in_memory:
            # boot-time sequential chain: the walk's outcome is known in
            # closed form (slot k links to k+1)
            slots = list(range(count))
            self._virgin = False
            self._reg_head = head = \
                count + 1 if count < self.num_slots else NIL
            if head == NIL:
                self._reg_tail = NIL
            self.free_count -= count
            mem.bulk_update(region, (), extra_reads=count)
            return slots
        self._virgin = False
        slots: List[int] = []
        head = self._load_head()
        for _ in range(count):
            slot = self._dec(head)
            slots.append(slot)
            head = mem.peek(region, slot)
            if mask is not None:
                head &= mask
        self._store_head(head)
        if head == NIL:
            self._store_tail(NIL)
        self.free_count -= count
        mem.bulk_update(region, (), extra_reads=count)
        if self.anchors_in_memory:
            # each pop loads and stores the head anchor; the final
            # stores above already counted one store (plus the drained
            # tail store, when taken)
            mem.bulk_update(self.globals_region, (),
                            extra_reads=count - 1,
                            extra_writes=count - 1)
        return slots

    def push(self, slot: int) -> None:
        """Release one slot ("Enqueue Free List").

        Access pattern (anchors in memory): R tail, W next[slot], W tail
        (plus W next[tail] when the list was not empty).  With register
        anchors: :meth:`give` plus one :meth:`PointerMemory.charge`.
        Appending at the tail (rather than pushing at the head) matches
        hardware practice: it avoids reusing a just-freed slot whose data
        transfer may still be in flight.
        """
        mem = self.mem
        if not self.anchors_in_memory:
            written = self.give(mem.sram._words, slot)
            mem.charge(self._push_patterns[len(written) - 1], written)
            return
        self._require_init()
        self._check_slot(slot)
        self._virgin = False
        tail = self._load_tail()
        mem.write(self.next_region, slot, NIL)
        if tail == NIL:
            self._store_head(self._enc(slot))
        else:
            mem.write(self.next_region, self._dec(tail), self._enc(slot))
        self._store_tail(self._enc(slot))
        self.free_count += 1

    def give(self, words: Dict[int, int], slot: int) -> Tuple[int, ...]:
        """Register-anchor push straight onto the SRAM word store
        ``words``, uncharged.

        Returns the ``next`` indexes it wrote, in order: ``(slot,)`` onto
        an empty list, else ``(slot, old_tail)``.  The caller charges one
        ``W next`` per index inside its own operation's single charge.
        """
        self._require_init()
        self._check_slot(slot)
        tail = self._reg_tail - 1
        if tail >= self._extent:
            raise self.mem.region(self.next_region).index_error(tail)
        self._virgin = False
        base = self._base
        words[base + slot] = NIL
        self._reg_tail = slot + 1
        self.free_count += 1
        if tail < 0:
            self._reg_head = slot + 1
            return (slot,)
        words[base + tail] = slot + 1
        return (slot, tail)

    def push_chain(self, first_slot: int, last_slot: int, count: int) -> None:
        """Release a pre-linked chain in O(1) (the MMS delete-packet path).

        The chain ``first_slot -> ... -> last_slot`` must already be
        linked through the ``next`` region.
        """
        self._require_init()
        self._check_slot(first_slot)
        self._check_slot(last_slot)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._virgin = False
        tail = self._load_tail()
        self.mem.write(self.next_region, last_slot, NIL)
        if tail == NIL:
            self._store_head(self._enc(first_slot))
        else:
            self.mem.write(self.next_region, self._dec(tail), self._enc(first_slot))
        self._store_tail(self._enc(last_slot))
        self.free_count += count

    # ---------------------------------------------------------- anchors

    def _load_head(self) -> int:
        if self.anchors_in_memory:
            return self.mem.read(self.globals_region, self.HEAD_WORD)
        return self._reg_head

    def _store_head(self, value: int) -> None:
        if self.anchors_in_memory:
            self.mem.write(self.globals_region, self.HEAD_WORD, value)
        else:
            self._reg_head = value

    def _load_tail(self) -> int:
        if self.anchors_in_memory:
            return self.mem.read(self.globals_region, self.TAIL_WORD)
        return self._reg_tail

    def _store_tail(self, value: int) -> None:
        if self.anchors_in_memory:
            self.mem.write(self.globals_region, self.TAIL_WORD, value)
        else:
            self._reg_tail = value

    # --------------------------------------------------------- internals

    @staticmethod
    def _enc(slot: int) -> int:
        return slot + 1

    @staticmethod
    def _dec(word: int) -> int:
        return word - 1

    def _exhausted(self) -> OutOfBuffersError:
        in_use = self.num_slots - self.free_count
        return OutOfBuffersError(
            f"free list empty: {in_use} of {self.num_slots} slots in "
            f"use (install a buffer policy to make overload a drop "
            f"decision)", slots_in_use=in_use, num_slots=self.num_slots)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")

    def _require_init(self) -> None:
        if not self._initialized:
            raise RuntimeError("free list not initialized; call initialize()")
