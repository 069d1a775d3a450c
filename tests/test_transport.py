"""Every verdict survives a change of basis.

Each bundled rep, and a copy of it with t_1 set to zero, is moved to
dense bases of its source and its target (``dense_reference.
transport_rep``); its check-rep criteria must not change, and the moved
flag must still triangularize the moved linear parts. For the reps with an abelian source, ``rep_to_lr``
must commute with the move, and ``lr_to_rep`` of the moved product must
give a simply transitive rep. Over Q(sqrt 3), ``h3R2_to_g5_6`` runs the
arithmetic on dense ``Scalar`` rows.
"""

import pytest
from dense_reference import (dense_unit_change, flag_triangularizes,
                             transport_lr, transport_rep)

from nilaffine.affine import AffineRep, check_simply_transitive
from nilaffine.corpus import bundled_rep, bundled_rep_names
from nilaffine.lr import lr_to_rep, rep_to_lr

ABELIAN = [slug for slug in bundled_rep_names()
           if bundled_rep(slug).source.is_abelian()]


def moved(rep: AffineRep) -> AffineRep:
    return transport_rep(rep, dense_unit_change(rep.source.dim, 6),
                         dense_unit_change(rep.target.dim, 5))


def broken(rep: AffineRep) -> AffineRep:
    """rep with t_1 set to zero: the translations lose rank."""
    return AffineRep(rep.source, rep.target,
                     [(0,) * rep.target.dim, *rep.t[1:]], rep.D)


def criteria(rep: AffineRep) -> tuple:
    verdict = check_simply_transitive(rep)
    return (verdict.homomorphism.ok, verdict.t_bijective.ok,
            verdict.t_bijective.rank, verdict.linear_parts_nilpotent.ok,
            verdict.overall)


@pytest.mark.parametrize("slug", bundled_rep_names())
def test_check_rep_criteria_survive_a_change_of_basis(slug):
    rep, bad = bundled_rep(slug), broken(bundled_rep(slug))
    there = moved(rep)
    assert criteria(there) == criteria(rep) == (True, True, rep.target.dim,
                                                True, True)
    assert criteria(moved(bad)) == criteria(bad)
    assert criteria(bad)[1:3] == (False, rep.target.dim - 1)
    flag = check_simply_transitive(there).linear_parts_nilpotent.flag
    assert all(flag_triangularizes(flag, m) for m in there.D)


@pytest.mark.parametrize("slug", ABELIAN)
def test_lr_conversions_commute_with_a_change_of_basis(slug):
    rep = bundled_rep(slug)
    product = transport_lr(rep_to_lr(rep), dense_unit_change(rep.target.dim, 5))
    assert rep_to_lr(moved(rep)) == product
    assert check_simply_transitive(lr_to_rep(product)).overall


def test_four_bundled_reps_have_an_abelian_source():
    assert len(ABELIAN) == 4
