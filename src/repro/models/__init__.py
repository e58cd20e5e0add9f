"""Pluggable execution models.

An *execution model* answers "how long does this workload take on this kind
of system?" — the paper compares four (``svm``, ``ideal``, ``copydma``,
``software``), all registered here.  Every model returns the same
:class:`RunOutcome`, so the layers above (jobs, sweeps, ``compare()``, the
CLI) are model-agnostic: registering a fifth model under a new name makes it
sweepable everywhere without touching them.

See :mod:`repro.models.registry` for the registration contract and
:mod:`repro.models.builtin` for the reference implementations.
"""

from .base import RECORD_FIELDS, TIERS, ExecutionModel, RunOutcome
from .registry import (DuplicateModelError, UnknownModelError, get_model,
                       register_model, registered_models, unregister_model)
from . import builtin as _builtin   # registers the paper's four models
from .builtin import CANONICAL_MODELS
from . import variants as _variants  # registers the SVM variant family
from .variants import VARIANT_MODELS

del _builtin, _variants

#: Canonical models first (Table 3 column order), then the variant family —
#: the seven models the Fig. 11 ablation sweeps.
ALL_MODELS = CANONICAL_MODELS + VARIANT_MODELS

__all__ = [
    "ALL_MODELS",
    "CANONICAL_MODELS",
    "VARIANT_MODELS",
    "DuplicateModelError",
    "ExecutionModel",
    "RECORD_FIELDS",
    "RunOutcome",
    "TIERS",
    "UnknownModelError",
    "get_model",
    "register_model",
    "registered_models",
    "unregister_model",
]
