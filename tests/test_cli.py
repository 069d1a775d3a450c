import json
import subprocess
import sys

import pytest

from nilaffine import cli
from nilaffine.corpus import algebra_path, rep_path
from nilaffine.io import read_json, write_json
from nilaffine.liealg import LieAlgebra, algebra_to_dict, derivation_space, get_algebra
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

    def test_failing_check_is_one(self, tmp_path, capsys):
        bad = LieAlgebra.from_table(
            "bad", 3, {(1, 2): ((3, 1),), (1, 3): ((1, 1),)})
        f = tmp_path / "bad.json"
        write_json(f, algebra_to_dict(bad))
        assert run(["check-lie", str(f)]) == 1
        assert "jacobi: FAIL" in capsys.readouterr().out


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
        assert run(["rep-to-lr", str(rep_path("h3_to_r3"))]) == 1
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
                  for name in ("is_abelian", "lower_central_series",
                               "derived_series", "center")}
        assert run_out(capsys, argv) == before
        assert {name: len(calls) for name, calls in counts.items()} == \
            dict.fromkeys(counts, 1)

    @pytest.mark.parametrize("name", ("h3", "g6_18"))
    def test_obstruct_checks_its_verdict_once(self, capsys, monkeypatch,
                                              name):
        calls = self.count_calls(monkeypatch, cli, "verify_certificate")
        assert run(["obstruct-abelian", "--algebra", name]) in (0, 1)
        capsys.readouterr()
        assert len(calls) == 1

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
