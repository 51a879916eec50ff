"""The replayable mutation list of ``tools/mutants.py`` stays replayable.

The mutants themselves run outside Tier-1 (``python3 tools/mutants.py``).
Here each entry is only checked against the source it mutates: its text
occurs exactly once in its file, so a change to the library that moves or
rewrites a mutated line fails here instead of leaving a dead entry."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutated_source_text_occurs_exactly_once(m):
    text = (ROOT / "src" / "poissonenv" / m.path).read_text(encoding="utf-8")
    assert text.count(m.source) == 1
    assert m.replacement != m.source
    assert m.tests and all((ROOT / a).exists() for a in m.tests if a.startswith("tests/"))


def test_entries_have_distinct_names_and_reasons_on_one_line():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert m.equivalent is None or (m.equivalent and "\n" not in m.equivalent)
