"""Bundled worked examples: verified reps between small catalog algebras.

Each rep is a simply transitive affine rep with unit translations
(t_i = X_i), except the rank-five example where one translation carries
an irrational stretch. They double as CLI demo inputs and as fixed
points for the test suite. The JSON files under data/ are their only
source: bundled_rep loads them.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .affine import AffineRep, rep_from_dict
from .io import read_json

_REP_SLUGS = (
    "r3_to_h3", "h3_to_r3",
    "r4_to_r4", "r4_to_h3R", "r4_to_f4",
    "h3R_to_r4", "h3R_to_h3R", "h3R_to_f4",
    "f4_to_r4", "f4_to_h3R", "f4_to_f4",
    "h3R2_to_g5_6",
)


def bundled_rep(slug: str) -> AffineRep:
    if slug not in _REP_SLUGS:
        raise KeyError(f"no bundled rep named {slug!r}")
    path = rep_path(slug)
    return rep_from_dict(read_json(path), where=str(path), label=slug)


def bundled_reps() -> dict[str, AffineRep]:
    return {slug: bundled_rep(slug) for slug in _REP_SLUGS}


def bundled_rep_names() -> tuple[str, ...]:
    return _REP_SLUGS


def data_dir() -> Path:
    return Path(resources.files("nilaffine") / "data")


def rep_path(slug: str) -> Path:
    return data_dir() / "reps" / f"{slug}.json"


def algebra_path(name: str) -> Path:
    return data_dir() / "algebras" / f"{name}.json"
