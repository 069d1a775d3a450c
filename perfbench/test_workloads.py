"""Tests of the benchmark's input generators and tracer.

Run from the repository root: python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

from run import import_package

nilaffine = import_package()

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from nilaffine import check_simply_transitive  # noqa: E402

DATA = Path(nilaffine.__file__).resolve().parent / "data"
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
POSITIONS = [(r, c) for r in range(6) for c in range(r)]


def refute_members():
    return [None] + [(r, c, k) for r, c in POSITIONS for k in W.TRANSPORT_COEFFS]


@pytest.mark.parametrize("member", refute_members(), ids=W.refute_key)
def test_transports_are_lie_algebras_that_stay_non_metabelian(member):
    L = W.refute_algebra(member)
    assert L.check_jacobi().ok
    assert L.is_nilpotent()
    assert not L.is_two_step_solvable()


@pytest.mark.parametrize("name", list(W.scaling_family()))
def test_scaling_family_is_nilpotent_and_metabelian_in_every_basis(name):
    pool = W.basis_pool(name, W.scaling_family()[name].dim)
    assert len(set(pool)) == W.BASES
    for index in range(W.BASES):
        L = W.scaling_algebra(name, index)
        assert L.check_jacobi().ok
        assert L.is_nilpotent()
        assert L.is_two_step_solvable()


def test_family_structure_constants():
    assert W.filiform(5).describe() == (
        "L5: dim 5, [X1, X2] = X3, [X1, X3] = X4, [X1, X4] = X5")
    assert W.heisenberg(2).describe() == (
        "h5: dim 5, [X1, X3] = X5, [X2, X4] = X5")
    assert W.filiform_r(6).describe() == (
        "R6: dim 6, [X1, X2] = X3, [X1, X3] = X4, [X1, X4] = X5, "
        "[X1, X5] = X6, [X2, X3] = X5, [X2, X4] = X6")


def test_every_refutation_fails_exactly_its_criterion():
    reps = W.load_bundled(DATA)
    pool = W.refutation_pool(reps)
    assert {c for _, _, c in pool} == {W.HOM, W.BIJ, W.NIL}
    for builder, member, criterion in pool:
        key, rep = builder(reps, member)
        verdict = check_simply_transitive(rep)
        failing = [c for c in (W.HOM, W.BIJ, W.NIL)
                   if not getattr(verdict, c).ok]
        assert failing == [criterion], key


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seeded_inputs_repeat_and_are_in_the_reference(workload, tmp_path):
    first = W.prepare(workload, 7, tmp_path / "a", DATA)
    again = W.prepare(workload, 7, tmp_path / "b", DATA)
    assert [i.key for i in first] == [i.key for i in again]
    assert [i.file.read_bytes() for i in first] == \
        [i.file.read_bytes() for i in again]
    pool = W.prepare(workload, None, tmp_path / "pool", DATA)
    assert {i.key for i in pool} == set(REFERENCE[workload])
    for seed in range(20):
        keys = [i.key for i in W.prepare(workload, seed, tmp_path / "s", DATA)]
        assert len(keys) == len(set(keys))
        assert set(keys) <= set(REFERENCE[workload])


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    import decide
    from nilaffine import affine, linalg, lr, obstruction
    before = (obstruction.check_simply_transitive, lr.engel_flag,
              linalg.Matrix.rref)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert obstruction.check_simply_transitive is \
            affine.check_simply_transitive is not before[0]
        assert lr.engel_flag is linalg.engel_flag is not before[1]
        item = W.prepare("obstruct-scaling", 0, tmp_path, DATA)[0]
        result = tracer.run(0, "decision", decide.decide, item, tmp_path)
    finally:
        tracer.uninstall()
    assert (obstruction.check_simply_transitive, lr.engel_flag,
            linalg.Matrix.rref) == before
    assert result.value.verdict == "Found"
    self_s, calls = tracer.layer_totals()
    root = tracer.spans[0]
    assert root[0] == "decision"
    assert sum(self_s.values()) == pytest.approx(root[2] - root[1])
    assert calls["obstruction.witness"] == 1
    assert calls["obstruction.witness.candidates"] == 1
    assert calls["liealg.derivation_space"] == 1   # verify re-checks the witness
