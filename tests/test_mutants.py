"""`tests/mutants.py` names mutations of the source by exact anchor text.
A refactor that moves an anchor would make its mutant unappliable without
any error until someone runs the list; this test fails instead."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "_mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_once_and_has_its_target():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        text = (ROOT / m.path).read_text()
        assert text.count(m.anchor) == 1, m.name
        assert m.replacement != m.anchor, m.name
        assert (ROOT / m.target).is_file(), m.name
        assert Path(m.target).name.startswith("test_"), m.name
