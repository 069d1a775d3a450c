"""Every obstruct pool member of the benchmark, decided and checked against
the recorded reference: verdict, certificate, forced values and the SHA-256
of the rendered --json output. Reads perfbench/ and writes nothing there."""

import json
import sys
from pathlib import Path

import pytest

import nilaffine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import decide  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
DATA = Path(nilaffine.__file__).resolve().parent / "data"


@pytest.mark.parametrize("workload", ["obstruct-refute", "obstruct-scaling"])
def test_every_pool_member_matches_the_reference(workload, tmp_path):
    items = workloads.prepare(workload, None, tmp_path / "inputs", DATA)
    assert {item.key for item in items} == set(REFERENCE[workload])
    problems = []
    for item in items:
        problems += decide.check(decide.decide(item, tmp_path),
                                 REFERENCE[workload])
    assert problems == []
