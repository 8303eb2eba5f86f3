"""``check_agm``'s lane sweep against a per-kappa, per-beta reference.

``check_agm`` tests each law once per alpha, or per (alpha, beta), for
every kappa at once, on lane words.  The reference states the five laws
again, one kappa and one beta at a time on plain state masks, and shares
no law code with ``check_agm``: it builds its own rows, scope string and
violations, in the same kappa, alpha, law, beta order.  A ranking
assignment can break AGM-ii but never AGM-i, AGM-iv or AGM-v, so broken
operators drive the comparison too: an assignment whose ranking turns with
every call, and revisions patched into ``check_agm`` that break AGM-i,
AGM-iv or AGM-v alone.
"""

from itertools import count
from typing import Optional

import pytest

from bevo import Ranking, dalal_assignment, revise
from bevo.kernel import _mask
from bevo.postulates import (
    Instance,
    SuiteReport,
    Violation,
    check_agm,
    state_sets,
    suite_signature,
)


def _check_agm_reference(assign, sig, revise=revise):
    size = 1 << sig.num_states
    sets = state_sets(sig)
    comp = [(size - 1) ^ m for m in range(size)]
    vios: list[Violation] = []
    pairs = 0

    def record(pid: str, kmask: int, amask: int, bmask: Optional[int], lhs: int, rhs: int) -> None:
        obs = (sets[amask],) if bmask is None else (sets[amask], sets[bmask])
        inst = Instance(sig, None, sets[kmask], (), obs)
        vios.append(Violation(pid, inst, sets[lhs], sets[rhs]))

    for kmask in range(1, size):
        kappa = sets[kmask]
        row = [0] * size
        for amask in range(size):
            row[amask] = _mask(revise(kappa, sets[amask], assign))
        for amask in range(size):
            pairs += 1
            ra = row[amask]
            if ra & comp[amask]:
                record("AGM-i", kmask, amask, None, ra, amask)
            met = kmask & amask
            if met and ra != met:
                record("AGM-ii", kmask, amask, None, ra, met)
            if (ra == 0) != (amask == 0):
                record("AGM-iii", kmask, amask, None, ra, amask)
            for bmask in range(1, size):
                x = ra & bmask
                y = row[amask & bmask]
                if x & comp[y]:
                    record("AGM-iv", kmask, amask, bmask, x, y)
                if x and y & comp[x]:
                    record("AGM-v", kmask, amask, bmask, y, x)
    scope = f"exhaustive fluents={len(sig.fluents)} pairs"
    return SuiteReport("agm", scope, pairs, tuple(vios))


def _flat(sig):
    everything = Ranking(((1 << sig.num_states) - 1,))
    return lambda kappa: everything


def _unfaithful(sig):
    """States in decreasing index order, whatever kappa is; at one fluent this
    is the golden test's ``Ranking((0b10, 0b01))``."""
    ranking = Ranking(tuple(1 << s for s in reversed(range(sig.num_states))))
    return lambda kappa: ranking


def _turning(sig):
    """A fresh assignment whose order rotates by one state on every call."""
    calls = count()
    n = sig.num_states

    def assign(kappa):
        c = next(calls)
        return Ranking(tuple(1 << (s + c) % n for s in range(n)))

    return assign


# Broken revisions, patched into ``check_agm``; each breaks a law that no
# ranking assignment can break.


def _kappa_on_empty(kappa, alpha, assign):
    """Answers the empty observation with kappa: AGM-i fails."""
    return revise(kappa, alpha, assign) or frozenset(kappa)


def _blind_to_state_0(kappa, alpha, assign):
    """Answers {0} with nothing: AGM-iii fails there, and AGM-iv wherever
    K*alpha holds state 0 and alpha's meet with beta is {0}."""
    return frozenset() if alpha == {0} else revise(kappa, alpha, assign)


def _pairs_kept_whole(kappa, alpha, assign):
    """Keeps every two-state observation whole: AGM-v fails where AGM-iv holds."""
    return frozenset(alpha) if len(alpha) == 2 else revise(kappa, alpha, assign)


_ASSIGNMENTS = {
    "dalal": dalal_assignment,
    "flat": _flat,
    "unfaithful": _unfaithful,
    "turning": _turning,
}
_REVISIONS = {
    "kappa_on_empty": _kappa_on_empty,
    "blind_to_state_0": _blind_to_state_0,
    "pairs_kept_whole": _pairs_kept_whole,
}


def _violations(rep):
    return [(v.postulate, v.instance, v.lhs, v.rhs) for v in rep.violations]


def _compare(fluents, name, monkeypatch):
    sig = suite_signature(fluents, with_action=False)
    make = _ASSIGNMENTS.get(name, dalal_assignment)
    reviser = _REVISIONS.get(name, revise)
    monkeypatch.setattr("bevo.postulates.revise", reviser)
    want = _check_agm_reference(make(sig), sig, reviser)
    got = check_agm(make(sig), sig)
    assert (got.instances, got.scope) == (want.instances, want.scope)
    assert _violations(got) == _violations(want)
    return {v.postulate for v in want.violations}


@pytest.mark.parametrize("name", list(_ASSIGNMENTS) + list(_REVISIONS))
@pytest.mark.parametrize("fluents", [1, 2])
def test_small_scopes(fluents, name, monkeypatch):
    kinds = _compare(fluents, name, monkeypatch)
    if fluents == 2 and name in ("turning", *_REVISIONS):
        # Each broken operator breaks a law that quantifies over beta.
        assert kinds & {"AGM-iv", "AGM-v"}
    assert ("AGM-i" in kinds) == (name == "kappa_on_empty")


@pytest.mark.parametrize("name", ["dalal", "unfaithful"])
def test_three_fluents(name, monkeypatch):
    assert bool(_compare(3, name, monkeypatch)) == (name == "unfaithful")
