"""Canonical experiment jobs: the unit of work sweeps dispatch.

Every figure/table sweep reduces to "run one workload under one execution
model with one harness configuration".  :class:`ExperimentJob` captures that
triple as a frozen, picklable, content-hashable value, and :func:`run_job`
executes it by looking the model up in the :mod:`repro.models` registry.
Because the job — not the figure — is the memoization unit, identical points
shared by different figures (e.g. the same SVM configuration in the Fig. 5
TLB sweep and the Fig. 9 crossover) hit the cache instead of re-simulating.

``run_job`` is a module-level function so it pickles cleanly into worker
processes; every model returns the same plain
:class:`~repro.models.base.RunOutcome` dataclass, which pickles back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..models import TIERS, RunOutcome, get_model


@dataclass(frozen=True)
class ExperimentJob:
    """One experiment point: (execution model, workload, configuration).

    ``tier`` requests an execution tier for models that support more than
    one (``"auto"`` — the default — replays recorded op streams through the
    fastpath engine when eligible and falls back to the event simulator
    otherwise; ``"event"`` pins the event simulator; ``"replay"`` demands
    the fastpath and errors when it cannot run).  Models that declare only
    the event tier ignore the request — the two tiers produce identical
    results, so a job's outcome never depends on it; only its wall-clock
    (and the ``tier`` field of the outcome) does.
    """

    kind: str
    workload: Any           # WorkloadSpec (kept loose to avoid an import cycle)
    config: Any             # HarnessConfig
    num_threads: int = 1
    tier: str = "auto"

    def __post_init__(self) -> None:
        get_model(self.kind)            # raises UnknownModelError if absent
        if self.num_threads < 1:
            raise ValueError("num_threads must be at least 1")
        if self.tier not in TIERS:
            raise ValueError(
                f"unknown tier {self.tier!r}; expected one of {TIERS}")


def run_job(job: ExperimentJob) -> RunOutcome:
    """Execute one job through the registered execution model.

    The tier request is forwarded only to models that declare the replay
    tier (``"replay" in model.tiers``); single-tier models run the event
    simulator regardless, so mixed-model sweeps (e.g. Fig. 11's ablation
    over ideal/copydma/software alongside the SVM family) accept any tier.
    """
    model = get_model(job.kind)
    if "replay" in getattr(model, "tiers", ()):
        return model.run(job.workload, job.config,
                         num_threads=job.num_threads, tier=job.tier)
    return model.run(job.workload, job.config, num_threads=job.num_threads)
