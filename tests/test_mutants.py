"""`tests/mutants.py` names mutations of the source by exact anchor text,
each with the test that must kill it, and `tests/corpus.py` lists CLI
argvs.  A refactor that moves an anchor, renames a test or renames an
option would break either list without any error until someone runs it;
these tests fail instead."""

import ast
import importlib.util
from pathlib import Path

from morreykit.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_{name}", ROOT / "tests" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_once_and_has_its_target():
    mutants = _load("mutants").MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        text = (ROOT / m.path).read_text()
        assert text.count(m.anchor) == 1, m.name
        assert m.replacement != m.anchor, m.name
        # the target is one test function, found by ast with no collection
        path, func = m.target.split("::")
        assert (ROOT / path).is_file(), m.name
        assert Path(path).name.startswith("test_"), m.name
        assert func.startswith("test_"), m.name
        tree = ast.parse((ROOT / path).read_text())
        assert func in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, m.name


def test_every_corpus_argv_parses():
    argvs = _load("corpus").ARGVS
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
    for argv in argvs:
        build_parser().parse_args(argv)  # SystemExit on an unknown option
