"""Comparison baselines: software threads, copy-DMA accelerators, ideal accelerators."""

from .common import FabricRunResult, run_physically_addressed
from .copydma import CopyDMAAccelerator, CopyDMARunResult, CopyModelConfig
from .software import SoftwareCPU, SoftwareCPUConfig, SoftwareRunResult

__all__ = [
    "CopyDMAAccelerator",
    "CopyDMARunResult",
    "CopyModelConfig",
    "FabricRunResult",
    "SoftwareCPU",
    "SoftwareCPUConfig",
    "SoftwareRunResult",
    "run_physically_addressed",
]
