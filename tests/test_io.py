"""The canonical writer writes json.dumps's bytes, and is the only writer.

``io.stable_json`` builds the --json text itself. Every document it is
given must come out as ``json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False) + "\\n"``: the documents of the CLI golden runs and of
the three benchmark pools, seeded random documents, and the inputs it
hands to ``json.dumps`` itself. The lint at the end parses the package
with ``ast``: ``json.dumps``/``json.dump`` are named only inside
``stable_json``, and ``Poly.render`` holds no loop of its own, so there is
one writer and one residual renderer.
"""

import ast
import json
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from record_cli_golden import groups, record

import nilaffine
from nilaffine import cli, io
from nilaffine.errors import PreconditionError

PACKAGE = Path(nilaffine.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import decide  # noqa: E402
import workloads  # noqa: E402


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def collect(monkeypatch, run) -> list:
    """The documents handed to stable_json while ``run()`` runs."""
    seen, real = [], io.stable_json

    def recording(doc):
        seen.append(doc)
        return real(doc)
    monkeypatch.setattr(io, "stable_json", recording)
    monkeypatch.setattr(cli, "stable_json", recording)
    run()
    monkeypatch.undo()
    return seen


@pytest.fixture(scope="module")
def golden_docs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        docs = collect(monkeypatch, lambda: [record(make)
                                             for make in groups().values()])
    assert len(docs) > 100
    return docs


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def pool_docs(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    items = workloads.prepare(request.param, None, work / "inputs",
                              PACKAGE / "data")
    with pytest.MonkeyPatch.context() as monkeypatch:
        docs = collect(monkeypatch, lambda: [decide.decide(item, work)
                                             for item in items])
    assert len(docs) >= len(items)
    return docs


def assert_fast_and_identical(docs, monkeypatch):
    expected = [reference(doc) for doc in docs]
    calls = []
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a))
    assert [io.stable_json(doc) for doc in docs] == expected
    assert calls == []   # none of them took the fallback


def test_every_golden_document(golden_docs, monkeypatch):
    assert_fast_and_identical(golden_docs, monkeypatch)


def test_every_pool_document(pool_docs, monkeypatch):
    assert_fast_and_identical(pool_docs, monkeypatch)


# escapes, control characters, non-ASCII, a lone surrogate and the two
# line separators that JavaScript, but not JSON, treats as newlines
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80 é中\u2028\u2029\ud800\U0001f600'
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=8)
LEAVES = st.one_of(TEXT, st.integers(), st.integers(-10 ** 40, 10 ** 40),
                   st.booleans(), st.none())
DOCS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(TEXT, inner, max_size=4)), max_leaves=24)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(DOCS)
def test_seeded_documents(doc):
    assert io.stable_json(doc) == reference(doc)


def test_empty_containers_and_leaves():
    for doc in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]],
                "", "é\n", 0, -7, True, False, None, [True, None, "x", 3]):
        assert io.stable_json(doc) == reference(doc)


class Code(IntEnum):
    ONE = 1


def self_containing() -> list:
    doc: list = [1]
    doc.append(doc)
    return doc


def nested(depth: int) -> list:
    doc: list = []
    for _ in range(depth):
        doc = [doc, 1]
    return doc


@pytest.mark.parametrize("doc", [
    1.5, {"x": [0.25, 1]}, {1: "one"}, {"a": {2: None}}, Code.ONE,
    [Code.ONE, 2], {"k": Code.ONE},
    nested(int(sys.getrecursionlimit() * 0.6))],
    ids=["float", "nested float", "int key", "nested int key", "IntEnum",
         "IntEnum in list", "IntEnum value", "deep"])
def test_what_it_does_not_build_goes_to_json_dumps(doc, monkeypatch):
    expected = reference(doc)
    calls, real = [], json.dumps

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(json, "dumps", spy)
    assert io.stable_json(doc) == expected
    assert len(calls) == 1


def test_self_containing_list_raises_as_json_dumps_does():
    doc = self_containing()
    with pytest.raises(ValueError, match="Circular reference detected"):
        reference(doc)
    with pytest.raises(ValueError, match="Circular reference detected"):
        io.stable_json(doc)


@pytest.mark.parametrize("doc", [{"n": 7 * 10 ** 5000}, [[7 * 10 ** 5000]],
                                 {"n": Code.ONE, "m": 7 * 10 ** 5000}])
def test_overlong_integer_is_a_precondition_error(doc):
    with pytest.raises(PreconditionError) as caught:
        io.stable_json(doc)
    assert "7000" not in str(caught.value)
    assert len(str(caught.value)) < 100


# ------------------------------------------------------------------ lint


def json_writers(source: str) -> list[str]:
    """The function enclosing each place that names json.dump or
    json.dumps, or imports either from json ("<module>" outside any)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps") \
                and isinstance(node.value, ast.Name) and node.value.id == "json":
            found.append(where)
        if isinstance(node, ast.ImportFrom) and node.module == "json" \
                and {a.name for a in node.names} & {"dump", "dumps"}:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(source), "<module>")
    return found


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def method(source: str, cls: str, name: str) -> ast.FunctionDef:
    [node] = [item for top in ast.parse(source).body
              if isinstance(top, ast.ClassDef) and top.name == cls
              for item in top.body
              if isinstance(item, ast.FunctionDef) and item.name == name]
    return node


def test_one_json_writer():
    places = {path.name: json_writers(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: where for name, where in places.items() if where} == \
        {"io.py": ["stable_json"]}


def test_poly_render_has_no_loop_of_its_own():
    render = method((PACKAGE / "obstruction.py").read_text(encoding="utf-8"),
                    "Poly", "render")
    assert not [node for node in ast.walk(render) if isinstance(node, LOOPS)]


def test_the_lint_sees_each_kind_of_writer_and_loop():
    assert json_writers('''
import json
from json import dumps
def emit(doc):
    return json.dump(doc, out)
class C:
    def show(self):
        return json.dumps(self)
x = json.loads("1")
''') == ["<module>", "emit", "show"]
    looped = method('''
class Poly:
    def render(self, name):
        return "".join(name(v) for v in self.terms)
''', "Poly", "render")
    assert [node for node in ast.walk(looped) if isinstance(node, LOOPS)]
