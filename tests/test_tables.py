"""The (i, j) -> terms table that algebra brackets and LR products share.

One reader parses both, so a malformed table gets the same message, at
the same path below ``brackets`` or ``product``, in either document.
"""

import pytest

from nilaffine import cli
from nilaffine.errors import ParseError
from nilaffine.io import write_json
from nilaffine.liealg import algebra_from_dict
from nilaffine.lr import lr_from_dict

BIG = int("9" * 4000)


def entry(i=1, j=2, terms=None):
    return {"i": i, "j": j, "terms": [{"k": 3, "c": 1}] if terms is None else terms}


# name: (table, path suffix of the bad value below the table)
MALFORMED = {
    "not-a-list": ({"i": 1, "j": 2, "terms": []}, ""),
    "entry-not-object": ([[1, 2, []]], "[0]"),
    "entry-missing-key": ([{"i": 1, "j": 2}], "[0]"),
    "entry-extra-key": ([dict(entry(), x=0)], "[0]"),
    "bool-i": ([entry(i=True)], "[0].i"),
    "string-j": ([entry(j="2")], "[0].j"),
    "float-i": ([entry(i=1.0)], "[0].i"),
    "bool-k": ([entry(terms=[{"k": False, "c": 1}])], "[0].terms[0].k"),
    "string-k": ([entry(terms=[{"k": "3", "c": 1}])], "[0].terms[0].k"),
    "pair-zero": ([entry(i=0)], "[0]"),
    "pair-past-dim": ([entry(), entry(j=4)], "[1]"),
    "pair-digits": ([entry(i=BIG)], "[0]"),
    "k-past-dim": ([entry(terms=[{"k": 4, "c": 1}])], "[0].terms[0].k"),
    "k-zero": ([entry(terms=[{"k": 0, "c": 1}])], "[0].terms[0].k"),
    "k-digits": ([entry(terms=[{"k": BIG, "c": 1}])], "[0].terms[0].k"),
    "repeated-pair": ([entry(), entry(terms=[])], "[1]"),
    "repeated-k": ([entry(terms=[{"k": 3, "c": 1}, {"k": 3, "c": -1}])],
                   "[0].terms[1].k"),
    "terms-not-list": ([entry(terms={"k": 3, "c": 1})], "[0].terms"),
    "term-not-object": ([entry(terms=[[3, 1]])], "[0].terms[0]"),
    "term-extra-key": ([entry(terms=[{"k": 3, "c": 1, "x": 0}])],
                       "[0].terms[0]"),
    "c-float": ([entry(terms=[{"k": 3, "c": 0.5}])], "[0].terms[0].c"),
    "c-bool": ([entry(terms=[{"k": 3, "c": True}])], "[0].terms[0].c"),
    "c-literal": ([entry(terms=[{"k": 3, "c": "1/0"}])], "[0].terms[0].c"),
    "c-triple": ([entry(terms=[{"k": 3, "c": [1, 0, 0]}])], "[0].terms[0].c"),
    "c-irrational-at-d1": ([entry(terms=[{"k": 3, "c": [0, 1]}])],
                           "[0].terms[0].c"),
}

# each document puts the table under its own prefix, in a 3-dim context
READERS = {
    "brackets": (lambda table: algebra_from_dict({"dim": 3, "brackets": table}),
                 "algebra.brackets"),
    "product": (lambda table: lr_from_dict({"algebra": "h3", "product": table}),
                "lr.product"),
}


def message(reader, table):
    read, prefix = READERS[reader]
    with pytest.raises(ParseError) as info:
        read(table)
    text = str(info.value)
    assert text.startswith(prefix)
    return text[len(prefix):]


@pytest.mark.parametrize("case", list(MALFORMED))
def test_both_readers_name_the_same_path(case):
    table, suffix = MALFORMED[case]
    brackets, product = (message(reader, table) for reader in READERS)
    assert brackets.startswith(suffix + ": ")
    assert brackets == product
    assert len(brackets) < 200


@pytest.mark.parametrize("command, key, doc", [
    ("check-lie", "brackets", {"dim": 3}),
    ("check-lr", "product", {"algebra": "h3"})])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_cli_exits_three(tmp_path, capsys, command, key, doc, case):
    table, suffix = MALFORMED[case]
    path = tmp_path / "table.json"
    write_json(path, {**doc, key: table})
    try:
        code = cli.main([command, str(path)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 3
    assert not captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f".{key}{suffix}: " in captured.err
    assert "Traceback" not in captured.err


def test_bracket_rule_stays_with_brackets():
    # i > j and i == j are bracket errors only; a product names any pair
    for table in ([entry(i=2, j=1)], [entry(i=2, j=2)]):
        with pytest.raises(ParseError, match=r"brackets\[0\]: require i < j"):
            algebra_from_dict({"dim": 3, "brackets": table})
        lr_from_dict({"algebra": "h3", "product": table})
