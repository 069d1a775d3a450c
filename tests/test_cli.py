import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from dense_reference import dense_unit_change

from nilaffine import affine, cli
from nilaffine.corpus import algebra_path, rep_path
from nilaffine.io import read_json, write_json
from nilaffine.liealg import (MAX_SAMPLES, LieAlgebra, abelian,
                              algebra_to_dict, derivation_space, get_algebra,
                              transport)
from nilaffine.linalg import Matrix
from nilaffine.lr import LRStructure, lr_to_dict
from nilaffine.obstruction import ObstructionOutcome


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def run_out(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodes:
    def test_check_rep_pass(self, capsys):
        assert run(["check-rep", str(rep_path("r3_to_h3"))]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_obstructed_is_one(self, capsys):
        assert run(["obstruct-abelian", "--algebra", "g6_18"]) == 1
        out = capsys.readouterr().out
        assert "verdict: Obstructed" in out
        assert "entry (4, 1) reduces to -1/4" in out

    def test_found_is_zero(self, capsys):
        assert run(["obstruct-abelian", "--algebra", "h3"]) == 0
        assert "verdict: Found" in capsys.readouterr().out

    def test_undetermined_is_two(self, capsys, monkeypatch):
        L = get_algebra("h3")

        def stub(algebra, samples=25, seed=0):
            return ObstructionOutcome(
                space=derivation_space(algebra), verdict="Undetermined",
                eliminated=(), samples=samples, seed=seed)
        monkeypatch.setattr(cli, "obstruct_abelian", stub)
        assert run(["obstruct-abelian", "--algebra", "h3"]) == 2
        assert "Undetermined" in capsys.readouterr().out

    def test_negative_samples_is_three(self, capsys):
        assert run(["obstruct-abelian", "--algebra", "h3",
                    "--samples", "-1"]) == 3
        captured = capsys.readouterr()
        assert "samples" in captured.err
        assert not captured.out

    def test_unknown_catalog_name(self, capsys):
        assert run(["check-lie", "--algebra", "nope"]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert run(["check-lie", str(bad)]) == 3
        capsys.readouterr()

    def test_unparsable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(["check-lie", str(bad)]) == 3
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert run(["check-rep", "/nonexistent/rep.json"]) == 3
        capsys.readouterr()

    def test_no_command(self, capsys):
        assert run([]) == 3
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 3
        capsys.readouterr()

    def test_file_and_algebra_conflict(self, tmp_path, capsys):
        f = tmp_path / "a.json"
        write_json(f, algebra_to_dict(get_algebra("h3")))
        assert run(["check-lie", str(f), "--algebra", "h3"]) == 3
        capsys.readouterr()

    def test_algebra_input_required(self, capsys):
        assert run(["derivations"]) == 3
        capsys.readouterr()

    def test_source_without_target(self, capsys):
        assert run(["check-rep", str(rep_path("r3_to_h3")),
                    "--source", "x.json"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("files", (1, 3))
    def test_check_rep_decides_jacobi_before_leibniz(self, tmp_path, capsys,
                                                     files):
        """A source that fails Jacobi is exit 3 although D_1 also breaks
        Leibniz on h3, whether the rep names its algebras or takes them
        from --source and --target."""
        bad = algebra_to_dict(LieAlgebra.from_table(
            "bad", 3, {(1, 2): ((3, 1),), (1, 3): ((1, 1),)}))
        doc = {"t": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               "D": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]] + [[[0] * 3] * 3] * 2}
        rep, src, tgt = (tmp_path / f for f in ("rep.json", "src.json", "tgt.json"))
        if files == 1:
            write_json(rep, {"source": bad, "target": "h3", **doc})
            argv = ["check-rep", str(rep)]
        else:
            write_json(rep, doc)
            write_json(src, bad)
            write_json(tgt, algebra_to_dict(get_algebra("h3")))
            argv = ["check-rep", str(rep), "--source", str(src), "--target", str(tgt)]
        assert run(argv) == 3
        assert "fails the Jacobi identity" in capsys.readouterr().err

    def test_failing_check_is_one(self, tmp_path, capsys):
        bad = LieAlgebra.from_table(
            "bad", 3, {(1, 2): ((3, 1),), (1, 3): ((1, 1),)})
        f = tmp_path / "bad.json"
        write_json(f, algebra_to_dict(bad))
        assert run(["check-lie", str(f)]) == 1
        assert "jacobi: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check-lr", "lr-to-rep"])
    def test_lr_on_a_jacobi_failure_is_three(self, tmp_path, capsys,
                                             monkeypatch, command):
        """Unusable input, as for check-rep and obstruct-abelian; Jacobi is
        decided once."""
        bad = LieAlgebra.from_table("bad", 3, {(1, 2): ((1, 1),),
                                               (1, 3): ((1, 1),),
                                               (2, 3): ((2, 1),)})
        f = tmp_path / "bad.lr.json"
        write_json(f, lr_to_dict(LRStructure.from_table(bad, {})))
        decided = []
        real = LieAlgebra.check_jacobi

        def counting(self):
            decided.append(self.name)
            return real(self)
        monkeypatch.setattr(LieAlgebra, "check_jacobi", counting)
        assert run([command, str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: algebra 'bad' fails the Jacobi "
                                "identity at triple (1, 2, 3)\n")
        assert not captured.out
        assert decided == ["bad"]

    @pytest.mark.parametrize("command", ["check-lr", "lr-to-rep"])
    @pytest.mark.parametrize("algebra, table", [
        (get_algebra("h3"), {(1, 2): ((3, Fraction(1, 2)),),   # identity (3)
                             (2, 1): ((3, Fraction(1, 2)),)}),
        (abelian(1), {(1, 1): ((1, 1),)})], ids=["identity", "incomplete"])
    def test_failed_lr_is_one(self, tmp_path, capsys, command, algebra, table):
        f = tmp_path / "s.lr.json"
        write_json(f, lr_to_dict(LRStructure.from_table(algebra, table)))
        assert run([command, str(f)]) == 1
        capsys.readouterr()


class TestRepToLrExitCodes:
    """rep-to-lr: a rep it cannot convert is unusable input (exit 3); only
    a rep that fails the simple-transitivity verdict is a failed check."""

    @staticmethod
    def write_rep(tmp_path, source, target, identity=False):
        """A rep with unit translations, each linear part 0 or the identity."""
        n = target.dim
        linear = Matrix.identity(n, 1) if identity else Matrix.zero(n, n)
        rep = affine.AffineRep(source, target, [[int(a == b) for a in range(n)]
                                                for b in range(source.dim)],
                               [linear] * source.dim)
        f = tmp_path / "rep.json"
        write_json(f, affine.rep_to_dict(rep))
        return str(f)

    def test_nonabelian_source_is_three(self, tmp_path, capsys):
        h3 = get_algebra("h3")
        f = self.write_rep(tmp_path, h3, h3)
        assert run(["check-rep", f, "--quiet"]) == 0
        assert run(["rep-to-lr", f]) == 3
        assert capsys.readouterr().err == \
            "error: source algebra 'h3' is not abelian\n"

    def test_dimension_mismatch_is_three(self, tmp_path, capsys):
        f = self.write_rep(tmp_path, abelian(2), get_algebra("h3"))
        assert run(["rep-to-lr", f]) == 3
        assert "differs from target dimension" in capsys.readouterr().err

    def test_not_simply_transitive_is_one(self, tmp_path, capsys):
        f = self.write_rep(tmp_path, abelian(2), abelian(2), identity=True)
        assert run(["rep-to-lr", f]) == 1
        assert "not simply transitive" in capsys.readouterr().err


class TestQuiet:
    def test_quiet_suppresses_stdout(self, capsys):
        code, out = run_out(capsys, ["obstruct-abelian", "--algebra", "g6_18",
                                     "--quiet"])
        assert code == 1 and out == ""

    def test_quiet_conversion_prints_nothing(self, capsys):
        code, out = run_out(capsys, ["rep-to-lr", str(rep_path("r3_to_h3")),
                                     "--quiet"])
        assert code == 0 and out == ""


class TestJsonDeterminism:
    CASES = [
        ["check-lie", "--algebra", "g6_18"],
        ["derivations", "--algebra", "g6_18"],
        ["check-rep", None],
        ["obstruct-abelian", "--algebra", "g6_18"],
        ["obstruct-abelian", "--algebra", "h3"],
        ["catalog", "list"],
        ["catalog", "show", "h3"],
    ]

    @pytest.mark.parametrize("argv", CASES,
                             ids=lambda argv: "-".join(a for a in argv if a))
    def test_repeat_runs_byte_identical(self, capsys, argv):
        argv = [str(rep_path("r4_to_f4")) if a is None else a for a in argv]
        code1, out1 = run_out(capsys, argv + ["--json"])
        code2, out2 = run_out(capsys, argv + ["--json"])
        assert code1 == code2
        assert out1 == out2
        assert out1.strip()
        json.loads(out1)

    def test_export_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["catalog", "export", "g6_18", str(a)]) == 0
        assert run(["catalog", "export", "g6_18", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bundled_algebra_file_matches_export(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run(["catalog", "export", "g6_18", str(out), "--quiet"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == algebra_path("g6_18").read_bytes()


class TestReports:
    def test_check_lie_json_fields(self, capsys):
        code, out = run_out(capsys, ["check-lie", "--algebra", "g6_18",
                                     "--json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["jacobi"]["ok"] is True
        assert doc["nilpotent"] is True
        assert doc["two_step_solvable"] is False
        assert doc["derived_dims"] == [6, 4, 1, 0]

    def test_derivations_json_anchors(self, capsys):
        code, out = run_out(capsys, ["derivations", "--algebra", "g6_18",
                                     "--json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["dimension"] == 9
        assert doc["anchors"] == [[1, 1], [2, 2], [3, 1], [3, 2], [4, 1],
                                  [5, 1], [5, 2], [6, 1], [6, 2]]

    def test_derivations_human_view_names_entries(self, capsys):
        code, out = run_out(capsys, ["derivations", "--algebra", "g6_18"])
        assert code == 0
        assert "generic derivation:" in out
        assert "gamma_12" in out and "-epsilon_11" in out

    def test_check_rep_json_overall(self, capsys):
        code, out = run_out(capsys, ["check-rep",
                                     str(rep_path("h3R2_to_g5_6")), "--json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["overall"] is True
        assert doc["homomorphism"]["ok"] is True
        assert doc["t_bijective"]["rank"] == 5

    def test_obstruct_json_forced(self, capsys):
        code, out = run_out(capsys, ["obstruct-abelian", "--algebra", "g6_18",
                                     "--json"])
        doc = json.loads(out)
        assert code == 1
        assert doc["certificate"]["constant"] == "-1/4"
        assert doc["forced"]["gamma_12"] == "-1/2"
        assert doc["witness"] is None

    def test_obstruct_json_witness(self, capsys):
        code, out = run_out(capsys, ["obstruct-abelian", "--algebra", "f4",
                                     "--json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["certificate"] is None
        assert doc["witness"]["rep"]["target"] == "f4"
        assert doc["witness"]["lr"] is not None

    def test_catalog_list_contents(self, capsys):
        code, out = run_out(capsys, ["catalog", "list", "--json"])
        doc = json.loads(out)
        assert code == 0
        assert len(doc["algebras"]) == 12
        assert len(doc["reps"]) == 12
        names = {entry["name"] for entry in doc["algebras"]}
        assert {"R1", "h3", "f4", "g5_6", "g6_18"} <= names

    def test_catalog_show_prints_bracket(self, capsys):
        code, out = run_out(capsys, ["catalog", "show", "h3"])
        assert code == 0
        assert "[X1, X2] = X3" in out

    def test_catalog_list_rejects_extra_args(self, capsys):
        assert run(["catalog", "list", "h3"]) == 3
        capsys.readouterr()

    def test_catalog_show_needs_name(self, capsys):
        assert run(["catalog", "show"]) == 3
        capsys.readouterr()


class TestPipelines:
    def test_rep_lr_rep_round_trip(self, tmp_path, capsys):
        lr = tmp_path / "lr.json"
        rep2 = tmp_path / "rep2.json"
        assert run(["rep-to-lr", str(rep_path("r4_to_f4")), "-o",
                    str(lr), "--quiet"]) == 0
        assert run(["check-lr", str(lr), "--quiet"]) == 0
        assert run(["lr-to-rep", str(lr), "-o", str(rep2), "--quiet"]) == 0
        assert run(["check-rep", str(rep2), "--quiet"]) == 0
        capsys.readouterr()
        doc = read_json(rep2)
        assert doc["source"] == "R4"
        assert doc["target"] == "f4"

    def test_export_check_lie_round_trip(self, tmp_path, capsys):
        f = tmp_path / "alg.json"
        assert run(["catalog", "export", "h3+R2", str(f), "--quiet"]) == 0
        assert run(["check-lie", str(f), "--quiet"]) == 0
        capsys.readouterr()

    def test_rep_to_lr_rejects_nonabelian_source(self, capsys):
        assert run(["rep-to-lr", str(rep_path("h3_to_r3"))]) == 3
        assert "abelian" in capsys.readouterr().err

    def test_check_lr_flags_incomplete(self, tmp_path, capsys):
        doc = {"algebra": {"name": "line", "dim": 1, "brackets": []},
               "product": [{"i": 1, "j": 1, "terms": [{"k": 1, "c": 1}]}]}
        f = tmp_path / "lr.json"
        write_json(f, doc)
        code, out = run_out(capsys, ["check-lr", str(f), "--json"])
        assert code == 1
        parsed = json.loads(out)
        assert parsed["identities_ok"] is True
        assert parsed["complete"] is False

    def test_separate_source_target_files(self, tmp_path, capsys):
        src = tmp_path / "src.json"
        tgt = tmp_path / "tgt.json"
        write_json(src, algebra_to_dict(get_algebra("R3")))
        write_json(tgt, algebra_to_dict(get_algebra("h3")))
        rep_doc = read_json(rep_path("r3_to_h3"))
        rep_doc.pop("source")
        rep_doc.pop("target")
        rep = tmp_path / "rep.json"
        write_json(rep, rep_doc)
        assert run(["check-rep", str(rep), "--source", str(src),
                    "--target", str(tgt)]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("command", ["check-lie", "derivations",
                                     "obstruct-abelian", "check-rep",
                                     "check-lr"])
def test_huge_dimension_is_a_parse_error(tmp_path, command):
    huge = {"dim": 1000000000000, "brackets": []}
    if command == "check-rep":
        doc = {"source": huge, "target": "h3", "t": [], "D": []}
    elif command == "check-lr":
        doc = {"algebra": huge, "product": []}
    else:
        doc = huge
    f = tmp_path / "huge.json"
    write_json(f, doc)
    proc = subprocess.run([sys.executable, "-m", "nilaffine", command, str(f)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "largest supported dimension" in proc.stderr


def test_samples_past_the_bound_exit_three(tmp_path):
    # a dense h3 ends Undetermined after drawing every sample, about 0.4 ms
    # each, so 10^9 of them would run for days
    f = tmp_path / "h3_dense.json"
    write_json(f, algebra_to_dict(transport(get_algebra("h3"),
                                            dense_unit_change(3, 5))))
    proc = subprocess.run([sys.executable, "-m", "nilaffine", "obstruct-abelian",
                           str(f), "--samples", str(10 ** 9)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (f"error: samples must lie in 0..{MAX_SAMPLES}, "
                           f"got 1000000000\n")


def test_oversized_integer_is_a_parse_error(tmp_path):
    # beyond the interpreter's limit on digits in an integer literal
    f = tmp_path / "big.json"
    f.write_text('{"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": '
                 '[{"k": 1, "c": ' + "7" * 5000 + '}]}]}', encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "nilaffine", "check-lie",
                           str(f)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "big.json" in proc.stderr


DEEP_COMMANDS = {
    "check-lie": ["check-lie"], "derivations": ["derivations"],
    "obstruct-abelian": ["obstruct-abelian"], "check-rep": ["check-rep"],
    "check-rep-three-files": ["check-rep", "--source", "R3.json",
                              "--target", "h3.json"],
    "rep-to-lr": ["rep-to-lr"], "lr-to-rep": ["lr-to-rep"],
    "check-lr": ["check-lr"],
}


@pytest.mark.parametrize("case", list(DEEP_COMMANDS))
def test_deeply_nested_json_is_a_parse_error(tmp_path, case):
    # the decoder recurses once per level and raises RecursionError
    f = tmp_path / "deep.json"
    f.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    for name in ("R3", "h3"):
        write_json(tmp_path / f"{name}.json", algebra_to_dict(get_algebra(name)))
    argv = [str(tmp_path / a) if a.endswith(".json") else a
            for a in DEEP_COMMANDS[case]]
    proc = subprocess.run([sys.executable, "-m", "nilaffine", argv[0], str(f),
                           *argv[1:]], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {f}: invalid JSON: nested too deeply\n"


def test_oversized_residual_is_a_clean_error(tmp_path):
    # legal input whose identity-(2) residual c^2 is beyond the
    # interpreter's digit limit for int-to-str conversion
    c = 10 ** 2999 + 7
    doc = {"algebra": "R2", "product": [
        {"i": 1, "j": 1, "terms": [{"k": 2, "c": c}]},
        {"i": 2, "j": 2, "terms": [{"k": 1, "c": c}]}]}
    f = tmp_path / "big.lr.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "nilaffine", "check-lr",
                           "--json", str(f)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr) < 200


def run_file(command, path):
    return subprocess.run([sys.executable, "-m", "nilaffine", command,
                           str(path)], capture_output=True, text=True,
                          timeout=60)


def test_large_field_context_is_decided_quickly(tmp_path):
    f = tmp_path / "field.json"
    write_json(f, {"dim": 2, "d": 10 ** 18 + 3, "brackets": []})
    start = time.perf_counter()
    proc = run_file("check-lie", f)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0
    assert "d = 1000000000000000003" in proc.stdout


@pytest.mark.parametrize("command", ["check-lie", "check-rep", "check-lr"])
@pytest.mark.parametrize("d", [2 ** 63 + 1, 4, 0])
def test_bad_field_context_is_a_parse_error(tmp_path, command, d):
    # 4 and 0 with brackets or catalog names reached Scalar unchecked
    algebra = {"dim": 3, "d": d, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": 1}]}]}
    if command == "check-rep":
        doc = {"source": "R3", "target": "h3", "d": d, "t": [], "D": []}
    elif command == "check-lr":
        doc = {"algebra": algebra, "product": []}
    else:
        doc = algebra
    f = tmp_path / "field.json"
    write_json(f, doc)
    proc = run_file(command, f)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and ".d: " in proc.stderr
    assert ("largest supported field context" if d > 2 ** 63
            else "square-free") in proc.stderr


def test_long_literal_is_not_echoed(tmp_path):
    f = tmp_path / "literal.json"
    write_json(f, {"dim": 2, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 1, "c": "1x" + "9" * 5000}]}]})
    proc = run_file("check-lie", f)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr) < 300 and "5002 characters" in proc.stderr


BIG = int("9" * 4000)
ECHO_CASES = {
    "dim-string": ("check-lie", {"dim": "x" * 5000, "brackets": []}),
    "dim-list": ("check-lie", {"dim": [1] * 5000, "brackets": []}),
    "dim-digits": ("check-lie", {"dim": BIG, "brackets": []}),
    "d-negative-digits": ("check-lie", {"dim": 2, "d": -BIG, "brackets": []}),
    "bracket-i-digits": ("check-lie", {"dim": 2, "brackets": [
        {"i": BIG, "j": 2, "terms": [{"k": 1, "c": 1}]}]}),
    "term-k-digits": ("check-lie", {"dim": 2, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": BIG, "c": 1}]}]}),
    "unknown-key": ("check-lie", {"dim": 2, "y" * 5000: 1}),
    "lr-pair-digits": ("check-lr", {"algebra": "h3", "product": [
        {"i": BIG, "j": 1, "terms": []}]}),
    "lr-k-digits": ("check-lr", {"algebra": "h3", "product": [
        {"i": 1, "j": 1, "terms": [{"k": -BIG, "c": 1}]}]}),
}


@pytest.mark.parametrize("case", list(ECHO_CASES))
def test_parse_errors_do_not_echo_long_values(tmp_path, case):
    command, doc = ECHO_CASES[case]
    f = tmp_path / "echo.json"
    write_json(f, doc)
    proc = run_file(command, f)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr) < 300
    assert "characters)" in proc.stderr


class TestEachFactOnce:
    def count_calls(self, monkeypatch, owner, name):
        counted = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            counted.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
        return counted

    @pytest.mark.parametrize("flag", ([], ["--json"]))
    def test_check_lie_decides_each_property_once(self, capsys, monkeypatch,
                                                  flag):
        argv = ["check-lie", "--algebra", "g6_18"] + flag
        before = run_out(capsys, argv)
        counts = {name: self.count_calls(monkeypatch, LieAlgebra, name)
                  for name in ("is_abelian", "center")}
        assert run_out(capsys, argv) == before
        assert {name: len(calls) for name, calls in counts.items()} == \
            dict.fromkeys(counts, 1)

    @pytest.mark.parametrize("flag", ([], ["--json"]))
    def test_check_lie_computes_each_series_once(self, capsys, monkeypatch, flag):
        """The dimensions and the predicate of a series come from one run."""
        argv = ["check-lie", "--algebra", "g6_18"] + flag
        before = run_out(capsys, argv)
        calls = self.count_calls(monkeypatch, LieAlgebra, "_series")
        assert run_out(capsys, argv) == before
        assert sorted(derived for _, derived in calls) == [False, True]

    @pytest.mark.parametrize("name", ("h3", "g6_18"))
    def test_obstruct_checks_its_verdict_once(self, capsys, monkeypatch,
                                              name):
        calls = self.count_calls(monkeypatch, cli, "verify_certificate")
        assert run(["obstruct-abelian", "--algebra", name]) in (0, 1)
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("flag", ([], ["--quiet"]))
    def test_obstruct_builds_its_json_doc_only_to_print_it(self, capsys,
                                                           monkeypatch, flag):
        def refuse(outcome):
            raise AssertionError("JSON doc built without --json")
        monkeypatch.setattr(ObstructionOutcome, "to_dict", refuse)
        assert run(["obstruct-abelian", "--algebra", "h3"] + flag) == 0
        out = capsys.readouterr().out
        assert ("verdict: Found" in out) == (not flag)

    def test_three_file_check_rep_decides_leibniz_once(self, tmp_path, capsys,
                                                       monkeypatch):
        src, tgt, rep = (tmp_path / f for f in ("src.json", "tgt.json", "rep.json"))
        write_json(src, algebra_to_dict(get_algebra("R4")))
        write_json(tgt, algebra_to_dict(get_algebra("f4")))
        doc = read_json(rep_path("r4_to_f4"))
        write_json(rep, {"t": doc["t"], "D": doc["D"]})
        calls = self.count_calls(monkeypatch, affine, "_leibniz_failure")
        assert run(["check-rep", str(rep), "--source", str(src),
                    "--target", str(tgt)]) == 0
        capsys.readouterr()
        assert len(calls) == 4   # one per D_i

    def test_failed_cross_check_is_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_certificate",
                            lambda outcome, L: False)
        assert run(["obstruct-abelian", "--algebra", "h3"]) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nilaffine", "obstruct-abelian",
         "--algebra", "g6_18", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "Obstructed"


@pytest.mark.parametrize("command", ["check-lr", "lr-to-rep"])
def test_duplicate_product_target_is_a_parse_error(tmp_path, command):
    # a term list names each k once, as in a bracket; the two terms used to
    # be summed to zero and the product accepted
    doc = {"algebra": "R2", "product": [{"i": 1, "j": 2, "terms": [
        {"k": 2, "c": 1}, {"k": 2, "c": -1}]}]}
    f = tmp_path / "dup.lr.json"
    write_json(f, doc)
    proc = run_file(command, f)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "product[0].terms[1].k: duplicate target 2" in proc.stderr
    assert not proc.stdout
