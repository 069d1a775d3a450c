import pytest

from nilaffine.affine import check_simply_transitive, rep_from_dict
from nilaffine.corpus import (algebra_path, bundled_rep, bundled_rep_names,
                              bundled_reps, data_dir, rep_path)
from nilaffine.io import read_json
from nilaffine.liealg import algebra_from_dict, get_algebra

EXPECTED_SLUGS = (
    "r3_to_h3", "h3_to_r3",
    "r4_to_r4", "r4_to_h3R", "r4_to_f4",
    "h3R_to_r4", "h3R_to_h3R", "h3R_to_f4",
    "f4_to_r4", "f4_to_h3R", "f4_to_f4",
    "h3R2_to_g5_6",
)


def test_slug_inventory():
    assert bundled_rep_names() == EXPECTED_SLUGS
    assert set(bundled_reps()) == set(EXPECTED_SLUGS)


def test_unknown_slug():
    with pytest.raises(KeyError, match="no bundled rep"):
        bundled_rep("r9_to_nowhere")


@pytest.mark.parametrize("slug", EXPECTED_SLUGS)
def test_every_bundled_rep_passes(slug):
    assert check_simply_transitive(bundled_rep(slug)).overall


@pytest.mark.parametrize("slug", EXPECTED_SLUGS)
def test_rep_files_load_and_match(slug):
    path = rep_path(slug)
    assert path.is_file()
    loaded = rep_from_dict(read_json(path), where=str(path))
    assert loaded == bundled_rep(slug)
    assert check_simply_transitive(loaded).overall


def test_bundled_algebra_file_matches_catalog():
    path = algebra_path("g6_18")
    assert path.is_file()
    loaded = algebra_from_dict(read_json(path), where=str(path))
    assert loaded == get_algebra("g6_18")


def test_no_stray_data_files():
    shipped = {p.relative_to(data_dir()).as_posix()
               for p in data_dir().rglob("*.json")}
    expected = {f"reps/{slug}.json" for slug in EXPECTED_SLUGS}
    expected.add("algebras/g6_18.json")
    assert shipped == expected


def test_irrational_example_is_exact():
    rep = bundled_rep("h3R2_to_g5_6")
    assert rep.d == 3
    assert rep.source == get_algebra("h3+R2").with_field(3)
    assert rep.target == get_algebra("g5_6").with_field(3)
