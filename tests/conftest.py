"""Shared fixtures: the two bundled litmus domains and small helpers."""

import os
from pathlib import Path

import pytest

from bevo import make_signature, complete_transitions, parse_domain

DATA = Path(__file__).resolve().parent.parent / "data"

# pyproject's pytest ``pythonpath`` reaches this process only; the
# interpreters some CLI tests start import bevo from the same checkout.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(DATA.parent / "src"), os.environ.get("PYTHONPATH")])
)


def state_of(sig, *names):
    mask = 0
    for n in names:
        mask |= 1 << sig.fluents.index(n)
    return mask


@pytest.fixture(scope="session")
def litmus():
    return parse_domain((DATA / "litmus.bevd").read_text())


@pytest.fixture(scope="session")
def litmus_extended():
    return parse_domain((DATA / "litmus-extended.bevd").read_text())


@pytest.fixture()
def tiny_sig():
    return make_signature(("p", "q"), ("a",))


@pytest.fixture()
def identity_ts(tiny_sig):
    return complete_transitions(tiny_sig, ())
