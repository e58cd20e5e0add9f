"""Golden data: the host-CPU software baseline's whole result, per kernel.

The experiment goldens price the software baseline on a few tiny kernels
only (table3 on three, fig11 on two), and report its fabric cycles alone.
This suite pins the whole ``SoftwareRunResult`` of ``SoftwareCPU.run_ops``
(host and fabric cycles, elements, arithmetic operations and both cache hit
rates) for every kernel of the standard suite at tiny and default scale,
plus one two-thread ``run_threads`` case.  Each kernel is made fully
resident and drained the way ``harness.run_software`` does, and priced with
``HarnessConfig().software`` and the platform clocks.

Regenerate with ``--update-golden`` (see ``tests/README.md``).
"""

import dataclasses
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines.software import SoftwareCPU
from repro.core.platform import Platform
from repro.eval.harness import HarnessConfig
from repro.sim.process import run_functional
from repro.workloads.suite import standard_suite

GOLDEN_PATH = Path(__file__).parent / "golden" / "software_golden.json"

SCALES = ("tiny", "default")


def _drain(specs, config):
    """Bind ``specs`` fully resident into one platform and drain each."""
    platform = Platform(config.platform)
    streams, schedule = [], None
    for spec in specs:
        bound = replace(spec, residency=1.0).bind(platform.space)
        schedule = bound.schedule
        streams.append(run_functional(bound.make_kernel()))
    return streams, schedule


def _single(spec):
    def price():
        config = HarnessConfig()
        (ops,), schedule = _drain([spec], config)
        cpu = SoftwareCPU(config.software, clocks=config.platform.clocks)
        return cpu.run_ops(ops, schedule=schedule)
    return price


def _two_threads(kernel):
    # Two instances named as ``run_software(..., num_threads=2)`` names
    # them, bound side by side in one address space.
    spec = next(s for s in standard_suite("tiny") if s.kernel == kernel)

    def price():
        config = HarnessConfig()
        streams, schedule = _drain(
            [replace(spec, name=f"{spec.name}{i}") for i in range(2)], config)
        cpu = SoftwareCPU(config.software, clocks=config.platform.clocks)
        return cpu.run_threads(streams, schedule=schedule)
    return price


CASES = {
    **{f"{scale}_{spec.name}": _single(spec)
       for scale in SCALES for spec in standard_suite(scale)},
    "tiny_histogram_two_threads": _two_threads("histogram"),
}


def _record(case):
    # JSON round trip, so floats compare exactly with the loaded golden.
    return json.loads(json.dumps(dataclasses.asdict(case())))


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-golden"):
        data = {name: _record(case) for name, case in sorted(CASES.items())}
        GOLDEN_PATH.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
        return data
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_software_result_matches_golden(name, golden):
    assert _record(CASES[name]) == golden[name]


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)
    two = golden["tiny_histogram_two_threads"]
    assert len(two["per_thread_host_cycles"]) == 2
