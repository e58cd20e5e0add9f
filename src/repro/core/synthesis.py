"""System-level synthesis: from a :class:`SystemSpec` to a runnable system.

This is the reproduction of the paper's primary contribution.  Given a system
specification the synthesizer:

1. instantiates the platform (DRAM, bus, host OS, process address space),
2. creates one MMU (TLB + fault-delegation link) per hardware thread, with
   private or shared page-table walkers as specified,
3. attaches each thread's memory interface and the walkers to the system bus
   (generating the interconnect topology),
4. creates the OS-side delegate threads, and
5. produces an FPGA resource estimate for the generated system (Table 1).

The synthesized system can then execute application runs: the caller binds
each thread to a kernel generator (normally produced by
:mod:`repro.workloads`) and calls :meth:`SynthesizedSystem.run`, obtaining
per-thread and end-to-end cycle counts plus the full statistics snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..hwthread.memif import MemoryInterface
from ..hwthread.thread import HardwareThread, ThreadDoneCallback
from ..os.delegate import DelegateThread
from ..sim.process import KernelGenerator
from ..vm.mmu import MMU
from ..vm.tlb import TLB
from ..vm.walker import PageTableWalker, WalkerConfig
from .platform import Platform
from .resources import DeviceBudget, ResourceEstimate, ResourceModel
from .spec import SystemSpec, ThreadSpec


@dataclass
class SynthesizedThread:
    """One hardware thread instantiated by the synthesizer."""

    spec: ThreadSpec
    mmu: MMU
    walker: PageTableWalker
    memif: MemoryInterface
    delegate: DelegateThread
    resources: ResourceEstimate = field(default_factory=ResourceEstimate)


@dataclass
class SystemRunResult:
    """Outcome of executing a synthesized system."""

    total_cycles: int
    per_thread_fabric_cycles: Dict[str, int]
    per_thread_wall_cycles: Dict[str, int]
    aborted_threads: List[str]
    software_overhead_cycles: int
    stats: Dict[str, float]

    @property
    def ok(self) -> bool:
        return not self.aborted_threads

    def tlb_hit_rate(self, thread: str) -> float:
        hits = self.stats.get(f"mmu.{thread}.tlb_hits", 0.0)
        misses = self.stats.get(f"mmu.{thread}.tlb_misses", 0.0)
        total = hits + misses
        return hits / total if total else 0.0


class SystemSynthesizer:
    """Builds runnable systems (and their resource estimates) from specs."""

    def __init__(self, resource_model: Optional[ResourceModel] = None):
        self.resource_model = resource_model or ResourceModel()

    # ------------------------------------------------------------ synthesis
    def synthesize(self, spec: SystemSpec,
                   platform: Optional[Platform] = None,
                   spaces: Optional[Mapping[str, str]] = None) -> "SynthesizedSystem":
        """Instantiate the system described by ``spec``.

        A fresh :class:`Platform` is created from ``spec.platform`` unless an
        existing one is supplied (used when the caller has already allocated
        workload buffers in the process address space).

        ``spaces`` maps thread names to *process* names previously created on
        the platform's kernel (:meth:`HostKernel.create_process`); unmapped
        threads run in the platform's default process.  Together with
        ``spec.shared_tlb`` this builds multi-process systems: threads of
        different address spaces contending for one ASID-tagged fabric TLB.
        """
        platform = platform or Platform(spec.platform)
        page_size = platform.page_size

        if spaces:
            unknown = set(spaces) - {t.name for t in spec.threads}
            if unknown:
                raise ValueError(
                    f"spaces maps unknown threads {sorted(unknown)}; "
                    f"system threads: {[t.name for t in spec.threads]}")

        shared_walker: Optional[PageTableWalker] = None
        if spec.shared_walker:
            shared_walker = PageTableWalker(
                platform.sim, port=platform.bus.attach_master("ptw.shared"),
                config=WalkerConfig(), name="ptw.shared")

        shared_tlb: Optional[TLB] = None
        if spec.shared_tlb:
            # One fabric TLB for every hardware thread, dimensioned by the
            # first thread's spec (specs are uniform in practice).
            shared_tlb = TLB(spec.threads[0].tlb_config(page_size),
                             name="tlb.shared")
            if spec.host_shares_tlb:
                # The host CPU probes/refills the same ASID-tagged TLB:
                # pinning and fault service contend for its capacity.
                platform.kernel.attach_fabric_tlb(shared_tlb)

        threads: Dict[str, SynthesizedThread] = {}
        for thread_spec in spec.threads:
            process = (spaces or {}).get(thread_spec.name,
                                         platform.process_name)
            space = platform.kernel.address_space(process)
            fault_handler = platform.kernel.fault_handler(process)

            walker = shared_walker
            if walker is None or thread_spec.private_walker and not spec.shared_walker:
                walker = PageTableWalker(
                    platform.sim,
                    port=platform.bus.attach_master(f"ptw.{thread_spec.name}"),
                    config=WalkerConfig(), name=f"ptw.{thread_spec.name}")

            mmu = MMU(platform.sim, space.page_table, walker,
                      fault_handler=fault_handler,
                      config=thread_spec.mmu_config(page_size),
                      name=f"mmu.{thread_spec.name}",
                      tlb=shared_tlb)
            space.register_shootdown_target(mmu)
            if spec.shared_tlb:
                # A shared TLB can cache any process's translations, so the
                # kernel must be able to shoot pages down across spaces.
                platform.kernel.register_shootdown_target(mmu)

            port = platform.bus.attach_master(thread_spec.name)
            memif = MemoryInterface(platform.sim, port, mmu=mmu,
                                    config=thread_spec.memif_config(),
                                    name=f"{thread_spec.name}.memif")
            delegate = DelegateThread(platform.sim, platform.kernel,
                                      space, thread_spec.name)
            resources = self.resource_model.hardware_thread(
                thread_spec.schedule(), thread_spec.tlb_entries,
                thread_spec.tlb_associativity, thread_spec.max_burst_bytes,
                private_walker=not spec.shared_walker,
                private_tlb=not spec.shared_tlb,
                prefetch_depth=thread_spec.tlb_prefetch)
            threads[thread_spec.name] = SynthesizedThread(
                spec=thread_spec, mmu=mmu, walker=walker, memif=memif,
                delegate=delegate, resources=resources)

        return SynthesizedSystem(spec, platform, threads,
                                 shared_walker=shared_walker,
                                 shared_tlb=shared_tlb,
                                 resource_model=self.resource_model)


class SynthesizedSystem:
    """A fully instantiated system ready to execute kernels."""

    def __init__(self, spec: SystemSpec, platform: Platform,
                 threads: Dict[str, SynthesizedThread],
                 shared_walker: Optional[PageTableWalker],
                 resource_model: ResourceModel,
                 shared_tlb: Optional[TLB] = None):
        self.spec = spec
        self.platform = platform
        self.threads = threads
        self.shared_walker = shared_walker
        self.shared_tlb = shared_tlb
        self.resource_model = resource_model

    # -------------------------------------------------------------- resources
    def resource_estimate(self) -> ResourceEstimate:
        """Total fabric resources of the generated system (excl. the host PS)."""
        total = ResourceEstimate()
        for synth in self.threads.values():
            total = total + synth.resources
        if self.shared_walker is not None:
            total = total + self.resource_model.walker()
        if self.shared_tlb is not None:
            total = total + self.resource_model.tlb(
                self.shared_tlb.config.entries,
                self.shared_tlb.config.associativity)
        # Interconnect: one port per thread memif, plus walker ports.
        num_ports = self.platform.bus.num_masters
        total = total + self.resource_model.interconnect(max(1, num_ports))
        return total

    def fits(self, device: Optional[DeviceBudget] = None) -> bool:
        device = device or self.resource_model.device
        return device.fits(self.resource_estimate())

    # -------------------------------------------------------------------- run
    def run(self, kernels: Dict[str, KernelGenerator],
            pin_all: bool = False,
            prefetch_pages: int = 0) -> SystemRunResult:
        """Execute the system: one kernel generator per hardware thread.

        ``kernels`` maps thread names to generators.  Each drives a
        :class:`HardwareThread` on its thread's memory interface, and
        :meth:`launch` runs the threads' lifecycles.
        """
        self._check_bound(kernels)
        starts = {}
        for name, generator in kernels.items():
            synth = self.threads[name]
            starts[name] = HardwareThread(
                self.platform.sim, generator, synth.memif,
                config=synth.spec.thread_config(), name=name).start
        return self.launch(starts, pin_all=pin_all,
                           prefetch_pages=prefetch_pages)

    def launch(self, starts: Dict[str, Callable[[ThreadDoneCallback], None]],
               pin_all: bool = False,
               prefetch_pages: int = 0) -> SystemRunResult:
        """Run every thread's lifecycle; ``starts`` starts its fabric side.

        ``starts`` maps each thread name to a ``start(on_done)`` callable
        that starts the thread's fabric side and calls ``on_done(ok)`` when
        it finishes (``ok`` is False if it aborted): a
        :meth:`HardwareThread.start` (see :meth:`run`), or the replay tier's
        :func:`repro.fastpath.replay.replay_start`.  Every thread is created
        through its OS delegate (so driver overheads are charged), pinned
        and prefetched as asked, and started; the simulation runs until all
        threads are joined.
        """
        self._check_bound(starts)
        start_cycle = self.platform.sim.now
        aborted: List[str] = []

        for name, start in starts.items():
            delegate = self.threads[name].delegate
            # Pin the areas of the thread's *own* address space: threads may
            # live in different processes (synthesize's ``spaces=`` mapping).
            pinned_areas = list(delegate.space.areas) if pin_all else None

            def start_fabric(done: Callable[[], None],
                             start=start, thread_name: str = name) -> None:
                def on_done(ok: bool) -> None:
                    if not ok:
                        aborted.append(thread_name)
                    done()
                start(on_done)

            delegate.create_and_start(start_fabric, pinned_areas=pinned_areas,
                                      prefetch_pages=prefetch_pages)

        end_cycle = self.platform.run()

        per_thread_fabric: Dict[str, int] = {}
        per_thread_wall: Dict[str, int] = {}
        for name, synth in self.threads.items():
            synth.mmu.export_stats()
            per_thread_fabric[name] = synth.delegate.completion.fabric_cycles or 0
            per_thread_wall[name] = synth.delegate.completion.wall_cycles or 0

        return SystemRunResult(
            total_cycles=end_cycle - start_cycle,
            per_thread_fabric_cycles=per_thread_fabric,
            per_thread_wall_cycles=per_thread_wall,
            aborted_threads=aborted,
            software_overhead_cycles=self.platform.kernel.software_overhead_cycles,
            stats=self.platform.snapshot(),
        )

    def _check_bound(self, names) -> None:
        unknown = set(names) - set(self.threads)
        if unknown:
            raise KeyError(f"kernels bound to unknown threads: {sorted(unknown)}")
        missing = set(self.threads) - set(names)
        if missing:
            raise KeyError(f"no kernel bound to threads: {sorted(missing)}")
