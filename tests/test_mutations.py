"""The mutation list of tests/mutate.py still matches the code.

Each mutation edits exactly one place, its tests exist, and every mutation
listed as equivalent is in the list.  The mutation run itself, which runs the
tests once per mutant, is `python tests/mutate.py`.
"""

from pathlib import Path

import pytest

import mutate

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("mutation", mutate.MUTATIONS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutation):
    assert (mutate.SRC / mutation.file).read_text(encoding="utf-8").count(mutation.old) == 1
    assert mutation.old != mutation.new
    assert mutation.tests and all((TESTS / t).is_file() for t in mutation.tests)


def test_names_are_unique_and_equivalents_listed():
    names = [m.name for m in mutate.MUTATIONS]
    assert len(set(names)) == len(names)
    assert set(mutate.EQUIVALENT) <= set(names)
