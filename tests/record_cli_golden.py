"""Record the CLI golden file, tests/cli_golden.json.

Run from the repository root, with the package source to pin on the path:

    PYTHONPATH=src python tests/record_cli_golden.py

The file holds, for each run below, its argv, exit code and the SHA-256 of
its stdout, its stderr and the file it writes with ``-o`` (null when it
writes none). tests/test_cli_golden.py repeats the runs and compares, so
any change in the bytes a command prints or writes fails tier-1.

The runs, each in-process through ``cli.main``:

* every bundled rep: ``check-rep`` and ``rep-to-lr -o``, and on the product
  that writes, ``lr-to-rep -o`` and ``check-lr``;
* every bundled rep again: ``check-rep REP --source S --target T``, with
  the rep's source and target written as d = 1 algebra files S and T, so
  the Q(sqrt 3) rep crosses field contexts on loading;
* every catalog algebra: ``check-lie``, ``derivations`` and
  ``obstruct-abelian``;
* the algebra ``SQRT3_ALGEBRA`` over Q(sqrt 3), written as a file:
  ``check-lie`` and ``derivations``;
* the catalog: ``catalog list``, ``catalog show NAME`` for every catalog
  algebra and ``catalog export g6_18 FILE``;

each in text and in ``--json``. The runs of one rep or algebra form a group
and share a fresh temporary working directory that holds the inputs under
relative names, so no path enters the recorded bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from nilaffine import cli
from nilaffine.corpus import bundled_rep, bundled_rep_names, rep_path
from nilaffine.io import write_json
from nilaffine.liealg import algebra_to_dict, catalog_names

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

# A nilpotent algebra over Q(sqrt 3) whose derivation basis has sqrt(3)
# entries: [X1, X2] = X3, [X1, X3] = sqrt(3) X4, [X2, X3] = X4.
SQRT3_ALGEBRA = {"name": "n4_sqrt3", "dim": 4, "d": 3, "brackets": [
    {"i": 1, "j": 2, "terms": [{"k": 3, "c": 1}]},
    {"i": 1, "j": 3, "terms": [{"k": 4, "c": [0, 1]}]},
    {"i": 2, "j": 3, "terms": [{"k": 4, "c": 1}]}]}


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _run(argv: list[str], output: str | None = None) -> dict:
    """One in-process run in the current directory; ``output`` names the
    file it may write, removed afterwards."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if output is not None and os.path.exists(output):
        written = Path(output).read_bytes()
        os.remove(output)
    return {"argv": argv, "exit": code,
            "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()),
            "output": _sha(written)}


def _both(argv: list[str], output: str | None = None) -> list[dict]:
    return [_run(argv, output), _run(argv + ["--json"], output)]


def _rep_group(slug: str) -> list[dict]:
    rep, lr, back = f"{slug}.json", f"{slug}.lr.json", f"{slug}.back.json"
    Path(rep).write_bytes(rep_path(slug).read_bytes())
    runs = _both(["check-rep", rep])
    runs += _both(["rep-to-lr", rep, "-o", lr], lr)
    # a quiet run writes the product again, as the input of the LR runs
    if _run(["rep-to-lr", rep, "-o", lr, "--quiet"])["exit"] == 0:
        runs += _both(["lr-to-rep", lr, "-o", back], back)
        runs += _both(["check-lr", lr])
    return runs


def _files_group(slug: str) -> list[dict]:
    rep = bundled_rep(slug)
    Path(f"{slug}.json").write_bytes(rep_path(slug).read_bytes())
    for role, L in (("source", rep.source), ("target", rep.target)):
        write_json(Path(f"{role}.json"), algebra_to_dict(L.with_field(1)))
    return _both(["check-rep", f"{slug}.json", "--source", "source.json",
                  "--target", "target.json"])


def _algebra_group(name: str) -> list[dict]:
    runs = []
    for command in ("check-lie", "derivations", "obstruct-abelian"):
        runs += _both([command, "--algebra", name])
    return runs


def _sqrt3_group() -> list[dict]:
    write_json(Path("n4_sqrt3.json"), SQRT3_ALGEBRA)
    return _both(["check-lie", "n4_sqrt3.json"]) + \
        _both(["derivations", "n4_sqrt3.json"])


def _catalog_group() -> list[dict]:
    runs = _both(["catalog", "list"])
    for name in catalog_names():
        runs += _both(["catalog", "show", name])
    return runs + _both(["catalog", "export", "g6_18", "g6_18.json"], "g6_18.json")


def groups() -> dict[str, object]:
    """Group name -> a function making that group's runs."""
    out: dict[str, object] = {}
    for slug in bundled_rep_names():
        out[f"rep {slug}"] = lambda slug=slug: _rep_group(slug)
        out[f"rep files {slug}"] = lambda slug=slug: _files_group(slug)
    for name in catalog_names():
        out[f"algebra {name}"] = lambda name=name: _algebra_group(name)
    out["algebra file n4_sqrt3"] = _sqrt3_group
    out["catalog"] = _catalog_group
    return out


def record(make) -> list[dict]:
    """The runs of one group, made in a fresh temporary directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return make()
        finally:
            os.chdir(home)


def main() -> int:
    doc = {name: record(make) for name, make in groups().items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} groups, "
          f"{sum(len(runs) for runs in doc.values())} runs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
