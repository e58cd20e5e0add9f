"""Translation lookaside buffer models.

The paper's hardware threads each carry a small TLB in fabric; its size and
organisation are chosen by the system-level synthesis flow.  The model
supports fully-associative and set-associative organisations and three
replacement policies (LRU, FIFO, pseudo-random), which are ablated in the
Fig. 5 benchmark.
"""

from __future__ import annotations

import random
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

#: Tag identifying one translation within a set: (asid, vpn).  Entries from
#: different address spaces never alias, even for the same virtual page.
TLBKey = Tuple[int, int]

#: Outcomes of a traced operation (:meth:`TLB.start_trace`), which is one
#: int, ``vpn << 3 | outcome``: a lookup, a fill (``insert``) and a prefetch
#: probe (``in``), each of an absent or a present page.  The low bit says
#: whether the page was present.
(TRACE_MISS, TRACE_HIT, TRACE_NEW, TRACE_RESIDENT, TRACE_ABSENT,
 TRACE_PRESENT) = range(6)


@dataclass(frozen=True)
class TLBConfig:
    entries: int = 16
    associativity: Optional[int] = None   # None = fully associative
    replacement: str = "lru"              # lru | fifo | random
    hit_latency: int = 1
    page_size: int = 4096
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("TLB must have at least one entry")
        if self.associativity is not None:
            if self.associativity <= 0:
                raise ValueError("associativity must be positive")
            if self.entries % self.associativity:
                raise ValueError("entries must be a multiple of associativity")
        if self.replacement not in ("lru", "fifo", "random"):
            raise ValueError(f"unknown replacement policy {self.replacement!r}")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")

    @property
    def num_sets(self) -> int:
        if self.associativity is None:
            return 1
        return self.entries // self.associativity

    @property
    def ways(self) -> int:
        return self.entries if self.associativity is None else self.associativity


@dataclass(slots=True)
class TLBEntry:
    vpn: int
    frame: int
    writable: bool
    asid: int = 0
    #: Installed by a prefetcher rather than a demand miss.  The MMU clears
    #: the flag on first demand hit (and counts it as a useful prefetch).
    prefetched: bool = False
    #: Stride the prefetch was issued with (so a hit can chain down-stride).
    #: Lives on the entry — it is evicted together with the translation.
    prefetch_stride: int = 1


class TLB:
    """Set-associative TLB with pluggable replacement.

    The TLB is a passive lookup structure (no simulator events); the MMU adds
    its latency.  Statistics are kept locally and exported by the MMU.

    Entries are tagged by ``(asid, vpn)``: two address spaces mapping the same
    virtual page occupy distinct ways and never clobber each other.  Sets are
    still indexed by VPN bits alone (as hardware does), so translations of the
    same page from different spaces contend for the same set.
    """

    def __init__(self, config: TLBConfig | None = None, name: str = "tlb"):
        self.config = config or TLBConfig()
        self.name = name
        self._num_sets = self.config.num_sets
        self._sets: List[OrderedDict[TLBKey, TLBEntry]] = [
            OrderedDict() for _ in range(self._num_sets)]
        self._rng = random.Random(self.config.seed)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0
        #: Every operation in address space :attr:`trace_asid` since
        #: :meth:`start_trace` and its outcome, or None (not tracing, or the
        #: trace ended).
        self.trace: Optional[array] = None
        self.trace_asid = 0

    # ------------------------------------------------------------ addressing
    def _set_index(self, vpn: int) -> int:
        return vpn % self._num_sets

    # ---------------------------------------------------------------- tracing
    def start_trace(self, asid: int, vpn_limit: int) -> None:
        """Record every later lookup, fill and prefetch probe of this empty
        TLB in address space ``asid`` with its outcome in :attr:`trace`, one
        int each (see :data:`TRACE_MISS`): 4 bytes when the codes of VPNs
        below ``vpn_limit`` fit in 31 bits, else 8.

        A lookup hit right after a hit on the same page is not recorded: in
        every geometry it hits again and changes nothing.  Whoever inlines
        these operations (the replay engine) records them alike.  A
        shootdown, a flush or an operation in another address space ends
        the trace, since :meth:`follow` replays only lookups, fills and
        probes of one space.
        """
        if self.occupancy:
            raise ValueError("a trace starts from an empty TLB")
        self.trace = array("i" if vpn_limit <= 1 << 28 else "q")
        self.trace_asid = asid

    def _record(self, asid: int, code: int) -> None:
        """Append ``code`` to the running trace (see :meth:`start_trace`)."""
        if asid != self.trace_asid:
            self.trace = None
        elif code & 7 != TRACE_HIT or self.trace[-1] != code:
            self.trace.append(code)

    def follow(self, trace: Iterable[int]) -> bool:
        """Apply a recorded ``trace`` to this TLB, operation by operation;
        True if each has its recorded outcome here.

        Stops at the first that does not.  Fills install bare VPNs, not
        entries, and evictions follow this TLB's own geometry, policy and
        RNG, so :attr:`evictions` and :attr:`occupancy` afterwards are those
        of a run that saw the same outcomes.
        """
        sets = self._sets
        num_sets = self._num_sets
        ways = self.config.ways
        is_lru = self.config.replacement == "lru"
        for code in trace:
            outcome = code & 7
            vpn = code >> 3
            tlb_set = sets[vpn % num_sets]
            present = vpn in tlb_set
            if present != outcome & 1:
                return False
            if outcome == TRACE_HIT:
                if is_lru:
                    tlb_set.move_to_end(vpn)
            elif outcome == TRACE_NEW:
                if len(tlb_set) >= ways:
                    self._evict(tlb_set)
                tlb_set[vpn] = None
        return True

    # ---------------------------------------------------------------- lookup
    def lookup(self, vpn: int, asid: int = 0) -> Optional[TLBEntry]:
        """Probe the TLB.  Returns the entry on a hit, None on a miss."""
        tlb_set = self._sets[self._set_index(vpn)]
        entry = tlb_set.get((asid, vpn))
        if entry is not None:
            self.hits += 1
            if self.config.replacement == "lru":
                tlb_set.move_to_end((asid, vpn))
            if self.trace is not None:
                self._record(asid, vpn << 3 | TRACE_HIT)
            return entry
        self.misses += 1
        if self.trace is not None:
            self._record(asid, vpn << 3 | TRACE_MISS)
        return None

    def insert(self, vpn: int, frame: int, writable: bool, asid: int = 0,
               prefetched: bool = False) -> TLBEntry:
        """Install a translation, evicting per the replacement policy.

        Only an entry with the *same* ``(asid, vpn)`` tag is refreshed in
        place (e.g. after a permission upgrade); another address space's
        translation of the same page is a distinct entry.  ``prefetched``
        tags entries installed by a prefetch engine; a demand refill of the
        same page clears the tag.
        """
        key = (asid, vpn)
        tlb_set = self._sets[self._set_index(vpn)]
        present = key in tlb_set
        if self.trace is not None:
            self._record(asid, vpn << 3 | (TRACE_RESIDENT if present
                                           else TRACE_NEW))
        if present:
            entry = tlb_set[key]
            entry.frame = frame
            entry.writable = writable
            entry.prefetched = entry.prefetched and prefetched
            return entry
        if len(tlb_set) >= self.config.ways:
            self._evict(tlb_set)
        entry = TLBEntry(vpn=vpn, frame=frame, writable=writable, asid=asid,
                         prefetched=prefetched)
        tlb_set[key] = entry
        return entry

    def _evict(self, tlb_set: OrderedDict[TLBKey, TLBEntry]) -> None:
        """Drop one entry of a full set.

        A set's order is its insertion order, and only an LRU hit moves an
        entry to the end, so the first entry is the LRU and the FIFO victim.
        """
        self.evictions += 1
        if self.config.replacement == "random":
            del tlb_set[self._rng.choice(list(tlb_set))]
        else:
            tlb_set.popitem(last=False)

    # ----------------------------------------------------------- maintenance
    def invalidate(self, vpn: int, asid: Optional[int] = None) -> bool:
        """Shoot down translations of ``vpn``; True if any was present.

        With an explicit ``asid`` only that address space's entry is dropped;
        ``asid=None`` is the wildcard shootdown across all address spaces.
        """
        tlb_set = self._sets[self._set_index(vpn)]
        if asid is None:
            victims = [key for key in tlb_set if key[1] == vpn]
        else:
            victims = [(asid, vpn)] if (asid, vpn) in tlb_set else []
        for key in victims:
            del tlb_set[key]
        self.trace = None
        return bool(victims)

    def flush(self) -> int:
        """Invalidate everything; returns the number of dropped entries."""
        dropped = sum(len(s) for s in self._sets)
        for tlb_set in self._sets:
            tlb_set.clear()
        self.flushes += 1
        self.trace = None
        return dropped

    # ------------------------------------------------------------------ info
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def resident_vpns(self, asid: Optional[int] = None) -> List[int]:
        """VPNs currently cached, optionally restricted to one address space."""
        out: List[int] = []
        for tlb_set in self._sets:
            out.extend(vpn for (a, vpn) in tlb_set if asid is None or a == asid)
        return out

    def __contains__(self, item: Union[int, TLBKey]) -> bool:
        """Membership: a bare VPN matches any address space; an
        ``(asid, vpn)`` tuple matches exactly one."""
        if isinstance(item, tuple):
            asid, vpn = item
            return (asid, vpn) in self._sets[self._set_index(vpn)]
        return any(key[1] == item
                   for key in self._sets[self._set_index(item)])

    def __len__(self) -> int:
        return self.occupancy
