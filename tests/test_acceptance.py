"""Acceptance gate: every criterion runs exactly (tolerance zero) and prints
one PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete, or via ``poissonenv verify``."""

import pytest

from poissonenv import acceptance

NAMES = [name for name, _ in sorted(acceptance.ALL_CHECKS)]
FUNCS = dict(acceptance.ALL_CHECKS)


@pytest.mark.parametrize("name", NAMES)
def test_acceptance_criterion(name):
    passed, detail = FUNCS[name]()
    status = "PASS" if passed else "FAIL"
    print(f"{status} {name}: {detail}")
    assert passed, f"{name}: {detail}"
