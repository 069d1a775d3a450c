"""Every obstruct and check-rep pool member of the benchmark, decided and
checked against the recorded reference: verdict, certificate or criteria,
forced values and the SHA-256 of the rendered --json output. Reads
perfbench/ and writes nothing there."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nilaffine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import decide  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
DATA = Path(nilaffine.__file__).resolve().parent / "data"
OBSTRUCT = ["obstruct-refute", "obstruct-scaling"]


@pytest.fixture(scope="module", params=[*OBSTRUCT, "check-rep"])
def workload(request):
    return request.param


@pytest.fixture(scope="module")
def decisions(workload, tmp_path_factory):
    """Each pool member of the workload, decided once for every test."""
    work = tmp_path_factory.mktemp(workload)
    items = workloads.prepare(workload, None, work / "inputs", DATA)
    return [decide.decide(item, work) for item in items]


def test_every_pool_member_matches_the_reference(workload, decisions):
    assert {result.item.key for result in decisions} == set(REFERENCE[workload])
    problems = []
    for result in decisions:
        problems += decide.check(result, REFERENCE[workload])
    assert problems == []


@pytest.mark.parametrize("workload", OBSTRUCT, indirect=True)
def test_integral_eliminated_coefficients_are_ints(decisions):
    """Forcing keeps an integral value an int: a Fraction in an eliminated
    form always has a denominator above 1."""
    coefficients = [(result.item.key, v, c) for result in decisions
                    for v, form in result.value.eliminated
                    for c in form.terms.values()]
    assert coefficients
    assert [(key, v, c) for key, v, c in coefficients
            if type(c) is Fraction and c.denominator == 1] == []
