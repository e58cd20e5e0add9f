"""Every perfbench probe still names something it can wrap.

perfbench's traced mode (``perfbench/spans.py``) wraps the calls listed in
``PROBES`` by name; a renamed function or a method that moved to a base
class makes ``Recorder.install()`` fail, so every traced run fails.  This
test resolves each target the way ``spans.patch`` looks it up, without
installing any wrapper.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_resolves():
    spans = _load_spans()
    spans.import_targets()
    missing = []
    for probe in spans.PROBES:
        module = importlib.import_module(probe.module)
        owner, _, attr = probe.target.rpartition(".")
        if not owner:
            found = callable(getattr(module, attr, None))
            # Names are rebound in the modules that imported them.
            found = found and all(name in sys.modules for name in probe.where)
        elif owner == "*":
            found = any(attr in cls.__dict__
                        for cls in vars(module).values()
                        if inspect.isclass(cls)
                        and cls.__module__ == module.__name__)
        else:
            cls = getattr(module, owner, None)
            found = cls is not None and attr in cls.__dict__
        if not found:
            missing.append(f"{probe.span}: {probe.module}:{probe.target}")
    assert spans.PROBES and not missing, missing
