"""Per-layer spans and counts, taken from outside the package.

The tracer wraps the public entry points of each module under
``src/nilaffine`` and rebinds the wrappers wherever the package looks the
functions up: on the class for methods, and on every module that holds
the function under some name for functions, which covers names brought in
by ``from ... import`` (``obstruction.derivation_space``,
``obstruction.check_simply_transitive``, ``lr.engel_flag`` and so on).

A span records a name, start, end, parent span and decision id. Spans
stay in memory and are written out when the run ends. A layer's self time
is the time its spans cover minus the time their child spans cover.

``obstruct_abelian`` makes its forcing loop and witness search inline, so
the witness phase has no call to wrap. It is recovered from the spans:
when a decision ends in anything but Obstructed, the part of the
``obstruction.solve`` span after its last forcing span becomes an
``obstruction.witness`` span, and the spans in it become its children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import timeit
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import nilaffine
from nilaffine import affine, io, liealg, linalg, lr, obstruction, scalars

import decide

CELLS, PIVOTS = "linalg.rref.cells", "obstruction.forcing.pivots"

# (owner, attribute, span name, counter); the owner is a class for methods
# and a module for functions. CELLS adds the rows x cols of each reduced
# matrix, PIVOTS counts the added equations that forced a new pivot, and
# any other counter counts calls.
TARGETS = (
    (io, "read_json", "io.parse", None),
    (liealg, "algebra_from_dict", "io.parse", None),
    (affine, "rep_from_dict", "io.parse", None),
    (lr, "lr_from_dict", "io.parse", None),
    (io, "stable_json", "io.render", None),
    (io, "write_json", "io.render", None),
    (obstruction.ObstructionOutcome, "to_dict", "io.render", None),
    (affine, "rep_to_dict", "io.render", None),
    (lr, "lr_to_dict", "io.render", None),
    (liealg, "algebra_to_dict", "io.render", None),
    (decide, "report_doc", "io.render", None),
    (obstruction.ParametricMatrix, "commutator", "obstruction.build",
     "obstruction.build.commutators"),
    (obstruction, "parametric_derivation", "obstruction.build", None),
    (obstruction.LinearSystem, "reduce", "obstruction.forcing",
     "obstruction.forcing.reduce_calls"),
    (obstruction.LinearSystem, "add", "obstruction.forcing", PIVOTS),
    (obstruction, "verify_certificate", "obstruction.verify", None),
    (liealg, "derivation_space", "liealg.derivation_space", None),
    (liealg.LieAlgebra, "check_jacobi", "liealg.check_jacobi", None),
    (linalg.Matrix, "rref", "linalg.rref", CELLS),
    (linalg.Matrix, "__matmul__", "linalg.matmul", None),
    (linalg, "engel_flag", "linalg.engel_flag", None),
    (affine, "check_simply_transitive", "affine.check_simply_transitive", None),
    (affine, "check_homomorphism", "affine.check_homomorphism", None),
    (lr, "check_lr", "lr.check_lr", None),
    (lr, "check_complete", "lr.check_complete", None),
    (lr, "rep_to_lr", "lr.convert", None),
    (lr, "lr_to_rep", "lr.convert", None),
)

# Every per-layer metric with its unit, in report order. Layer figures are
# averages per decision over the traced passes.
UNITS = {
    "linalg.rref.calls": "count", "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "liealg.derivation_space.calls": "count",
    "liealg.derivation_space.self_s": "s",
    "obstruction.build.commutators": "count", "obstruction.build.self_s": "s",
    "obstruction.forcing.reduce_calls": "count",
    "obstruction.forcing.pivots": "count", "obstruction.forcing.self_s": "s",
    "obstruction.forcing.pivot_ratio": "ratio",
    "obstruction.witness.candidates": "count",
    "obstruction.witness.self_s": "s", "obstruction.verify.self_s": "s",
    "affine.check_simply_transitive.calls": "count",
    "affine.check_simply_transitive.self_s": "s",
    "affine.check_homomorphism.self_s": "s",
    "lr.check_lr.calls": "count", "lr.check_lr.self_s": "s",
    "lr.check_complete.self_s": "s", "lr.convert.self_s": "s",
    "linalg.engel_flag.calls": "count", "linalg.engel_flag.self_s": "s",
    "linalg.matmul.calls": "count", "linalg.matmul.self_s": "s",
    "liealg.check_jacobi.calls": "count", "liealg.check_jacobi.self_s": "s",
    "scalars.mul_ns.d1": "ns", "scalars.mul_ns.d3": "ns",
    "scalars.add_ns.d1": "ns", "scalars.inverse_ns.d3": "ns",
    "scalars.fraction_mul_ns": "ns", "scalars.constructed": "count",
    "io.parse.self_s": "s", "io.render.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

SOLVE, FORCING, WITNESS = ("obstruction.solve", "obstruction.forcing",
                           "obstruction.witness")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, decision]
        self.stack: list[int] = []
        self.decision = -1
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------- spans

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.decision])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def run(self, decision: int, name: str, fn, *args):
        """Call fn as decision number ``decision``, under a root span."""
        self.decision, self.active = decision, True
        index = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(index)
            self.active = False

    def _split_witness(self, solve: int) -> None:
        children = [j for j in range(solve + 1, len(self.spans))
                    if self.spans[j][3] == solve]
        forcing = [j for j in children if self.spans[j][0] == FORCING]
        start = self.spans[forcing[-1]][2] if forcing else self.spans[solve][1]
        witness = len(self.spans)
        self.spans.append([WITNESS, start, self.spans[solve][2], solve,
                           self.decision])
        for j in children:
            if self.spans[j][1] >= start:
                self.spans[j][3] = witness

    # -------------------------------------------------- wrapping

    def _wrap(self, fn, name: str, counter: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter == CELLS:
                tracer.counts[CELLS] += args[0].rows * args[0].cols
            elif counter == PIVOTS:
                tracer.counts[PIVOTS] += bool(result)
            elif counter:
                tracer.counts[counter] += 1
            if name == SOLVE and result.verdict != "Obstructed":
                tracer._split_witness(index)
            return result
        return traced

    def install(self) -> None:
        modules = [nilaffine, decide] + [
            m for key, m in sys.modules.items()
            if key.startswith("nilaffine.") and m is not None]
        targets = TARGETS + ((obstruction, "obstruct_abelian", SOLVE, None),)
        for owner, attr, name, counter in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------- results

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - covered[index]
            calls[name] += 1
        candidates = sum(1 for name, _, _, parent, _ in self.spans
                         if name == "affine.check_simply_transitive"
                         and parent >= 0 and self.spans[parent][0] == WITNESS)
        calls["obstruction.witness.candidates"] = candidates
        return self_s, calls

    def write(self, path: Path) -> None:
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": names,
                                 "fields": ["name", "start", "end", "parent",
                                            "decision"]}) + "\n")
            for name, start, end, parent, decision in self.spans:
                fh.write(f"[{ids[name]},{start!r},{end!r},{parent},{decision}]\n")


def layer_metrics(tracer: Tracer, decisions: int) -> dict[str, float]:
    """Per-decision averages of the traced layer figures."""
    self_s, calls = tracer.layer_totals()
    counts = dict(tracer.counts)
    per = {}
    for name in ("linalg.rref", "liealg.derivation_space",
                 "affine.check_simply_transitive", "lr.check_lr",
                 "linalg.engel_flag", "linalg.matmul", "liealg.check_jacobi"):
        per[f"{name}.calls"] = calls.get(name, 0)
    for name in ("linalg.rref", "liealg.derivation_space", "obstruction.build",
                 "obstruction.forcing", "obstruction.witness",
                 "obstruction.verify", "affine.check_simply_transitive",
                 "affine.check_homomorphism", "lr.check_lr", "lr.check_complete",
                 "lr.convert", "linalg.engel_flag", "linalg.matmul",
                 "liealg.check_jacobi", "io.parse", "io.render"):
        per[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (CELLS, "obstruction.build.commutators",
                 "obstruction.forcing.reduce_calls", PIVOTS):
        per[name] = counts.get(name, 0)
    per["obstruction.witness.candidates"] = calls["obstruction.witness.candidates"]
    out = {name: value / decisions for name, value in per.items()}
    reduces = counts.get("obstruction.forcing.reduce_calls", 0)
    out["obstruction.forcing.pivot_ratio"] = (
        counts.get(PIVOTS, 0) / reduces if reduces else 0.0)
    return out


# ------------------------------------------------------------------ scalars


def scalar_kernel(number: int = 2000, repeat: int = 7) -> dict[str, float]:
    """Nanoseconds per operation on fixed operands, median of ``repeat``."""
    S = scalars.Scalar
    env = {
        "a1": S(Fraction(355, 113)), "b1": S(Fraction(-22, 7)),
        "a3": S(Fraction(1, 3), Fraction(2, 5), 3),
        "b3": S(Fraction(-7, 4), Fraction(1, 6), 3),
        "fa": Fraction(355, 113), "fb": Fraction(-22, 7),
    }
    cases = {"scalars.mul_ns.d1": "a1 * b1", "scalars.mul_ns.d3": "a3 * b3",
             "scalars.add_ns.d1": "a1 + b1", "scalars.inverse_ns.d3": "a3.inverse()",
             "scalars.fraction_mul_ns": "fa * fb"}
    out = {}
    for name, stmt in cases.items():
        times = timeit.Timer(stmt, globals=env).repeat(repeat=repeat,
                                                        number=number)
        out[name] = statistics.median(times) / number * 1e9
    return out


def count_constructions(run_pass) -> int:
    """Scalar objects built while ``run_pass()`` runs, outside any timing."""
    S = scalars.Scalar
    original = S.__init__
    built = [0]

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    S.__init__ = counting_init
    try:
        run_pass()
    finally:
        S.__init__ = original
    return built[0]
