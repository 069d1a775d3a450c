"""The package imports only the standard library at runtime.

The tests themselves use pytest, hypothesis and sympy, so the check runs
in a fresh interpreter: it imports every module of the package, decides
one obstruct-abelian --json and one check-rep, and lists every module
loaded after the interpreter started that is neither part of nilaffine
nor in the standard library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import nilaffine
from nilaffine.corpus import rep_path

SCRIPT = r"""
import sys
before = set(sys.modules)
import contextlib, io, json, pkgutil, importlib
import nilaffine
from nilaffine import cli
for info in pkgutil.iter_modules(nilaffine.__path__):
    importlib.import_module("nilaffine." + info.name)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [cli.main(["obstruct-abelian", "--algebra", "h3", "--json"]),
             cli.main(["check-rep", sys.argv[1]])]
foreign = sorted(
    name for name in set(sys.modules) - before
    if name.partition(".")[0] not in sys.stdlib_module_names
    and name != "nilaffine" and not name.startswith("nilaffine."))
print(json.dumps({"codes": codes, "foreign": foreign,
                  "loaded": sorted(n for n in sys.modules if n.startswith("nilaffine"))}))
"""


def test_runtime_uses_only_the_standard_library():
    src = str(Path(nilaffine.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(rep_path("r3_to_h3"))],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert "nilaffine.obstruction" in result["loaded"]
    assert result["foreign"] == []
