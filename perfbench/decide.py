"""One decision per input, made as the matching CLI subcommand makes it,
and the gate that checks each decision against the recorded reference.

Package functions are called through their modules (``obstruction.
obstruct_abelian`` rather than a name imported here), so the functions
the tracer rebinds on those modules are the ones that run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from nilaffine import affine, io, liealg, linalg, lr, obstruction

from workloads import BIJ, HOM, NIL, Item


@dataclass
class Result:
    item: Item
    value: object          # ObstructionOutcome, RepVerdict or rebuilt AffineRep
    subject: object        # the algebra or rep the decision was made on
    verified: bool | None  # verify_certificate, for obstruct decisions
    text: str              # the rendered --json output


def report_doc(rep, verdict) -> dict:
    """The document ``nilaffine check-rep --json`` prints for a verdict."""
    hom = verdict.homomorphism
    bij = verdict.t_bijective
    nil = verdict.linear_parts_nilpotent
    return {
        "label": rep.label,
        "source": rep.source.name,
        "target": rep.target.name,
        "homomorphism": {
            "ok": hom.ok,
            "violations": [
                {"pair": list(v.pair),
                 "vector_residual": linalg.vector_to_json(v.vector_residual),
                 "matrix_residual": linalg.matrix_to_json(v.matrix_residual)}
                for v in hom.violations],
        },
        "t_bijective": {"ok": bij.ok, "rank": bij.rank,
                        "source_dim": bij.source_dim,
                        "target_dim": bij.target_dim,
                        "reason": bij.reason},
        "linear_parts_nilpotent": {
            "ok": nil.ok,
            "flag": [linalg.vector_to_json(v) for v in nil.flag.basis]
            if nil.flag else None,
            "stalled": [linalg.vector_to_json(v) for v in nil.failure.stalled]
            if nil.failure is not None else None,
            "witness": {
                "coefficients": linalg.vector_to_json(nil.witness.coefficients),
                "matrix": linalg.matrix_to_json(nil.witness.matrix)}
            if nil.witness else None,
        },
        "overall": verdict.overall,
    }


def render(result_value, subject, kind: str) -> str:
    if kind == "obstruct":
        doc = result_value.to_dict()
    elif kind == "check-rep":
        doc = report_doc(subject, result_value)
    else:
        doc = affine.rep_to_dict(result_value)
    return io.stable_json(doc)


def decide(item: Item, work: Path) -> Result:
    """read_json -> *_from_dict -> solve or check -> to_dict -> stable_json."""
    where = str(item.file)
    if item.kind == "obstruct":
        L = liealg.algebra_from_dict(io.read_json(item.file), where=where)
        outcome = obstruction.obstruct_abelian(L)
        verified = obstruction.verify_certificate(outcome, L)
        return Result(item, outcome, L, verified,
                      render(outcome, L, item.kind))
    rep = affine.rep_from_dict(io.read_json(item.file), where=where)
    if item.kind == "check-rep":
        verdict = affine.check_simply_transitive(rep)
        return Result(item, verdict, rep, None, render(verdict, rep, item.kind))
    # round trip: rep-to-lr -o FILE, then lr-to-rep FILE
    lr_file = work / f"{item.file.stem}.lr.json"
    io.write_json(lr_file, lr.lr_to_dict(lr.rep_to_lr(rep)))
    back = lr.lr_to_rep(lr.lr_from_dict(io.read_json(lr_file),
                                        where=str(lr_file)))
    return Result(item, back, rep, None, render(back, rep, item.kind))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def certificate_doc(outcome) -> dict | None:
    c = outcome.certificate
    if c is None:
        return None
    return {"kind": c.kind, "pair": list(c.pair), "constant": str(c.constant),
            "position": list(c.position) if c.position else None,
            "coordinate": c.coordinate}


def reference_entry(result: Result) -> dict:
    """What the reference records for one decision (see record_reference.py)."""
    entry = {"sha256": digest(result.text)}
    if result.item.kind == "obstruct":
        entry["verdict"] = result.value.verdict
        entry["certificate"] = certificate_doc(result.value)
        entry["forced"] = {k: str(v) for k, v in
                           sorted(result.value.forced_named().items())}
    return entry


def check(result: Result, reference: dict) -> list[str]:
    """Every way the decision disagrees with the reference; empty if none."""
    item = result.item
    ref = reference.get(item.key)
    if ref is None:
        return [f"{item.key}: no reference recorded"]
    problems = []
    if digest(result.text) != ref["sha256"]:
        problems.append("rendered output differs from the reference")
    if render(result.value, result.subject, item.kind) != result.text:
        problems.append("rendering twice gave different bytes")
    if item.kind == "obstruct":
        outcome = result.value
        if outcome.verdict != ref["verdict"]:
            problems.append(f"verdict {outcome.verdict}, "
                            f"expected {ref['verdict']}")
        if not result.subject.is_two_step_solvable() \
                and outcome.verdict != "Obstructed":
            problems.append("not two-step solvable, yet not Obstructed")
        if result.verified is not True:
            problems.append("verify_certificate did not return True")
        if certificate_doc(outcome) != ref["certificate"]:
            problems.append("certificate differs from the reference")
        forced = {k: str(v) for k, v in sorted(outcome.forced_named().items())}
        if forced != ref["forced"]:
            problems.append("forced values differ from the reference")
    elif item.kind == "check-rep":
        verdict = result.value
        for criterion in (HOM, BIJ, NIL):
            ok = getattr(verdict, criterion).ok
            if ok != (criterion != item.fails):
                problems.append(f"{criterion} is {ok}, "
                                f"expected {criterion != item.fails}")
        if verdict.overall != (item.fails is None):
            problems.append(f"overall is {verdict.overall}")
    elif result.value != result.subject:
        problems.append("round trip did not return an equal rep")
    return [f"{item.key}: {p}" for p in problems]
