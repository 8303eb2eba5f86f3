"""``postulates._padded_core`` against the padded view's plan.

The interaction sweep revises every kappa by one core per (trajectory,
observation): alpha's preimage under the trajectory's composite successor
function, or every state when that preimage is empty.  The reference is the
core ``evolution_final_state`` revises by, the one core of ``evolution._plan``
over the public ``padded_view`` under recency, which maps no actions to one
noop step.  Every alpha is swept, so the empty, the full and the unreachable
observations are all met.
"""

import random
from itertools import product

import pytest

from bevo.evolution import _plan, padded_view, recency
from bevo.kernel import NULL_ACTION, _image, _members
from bevo.postulates import (
    _composite,
    _padded_core,
    _random_system,
    single_action_systems,
    suite_signature,
)


def _reference(acts, amask, ts):
    """The one core of the padded view's plan under recency."""
    return _plan(padded_view(acts, _members(amask), ts.signature), ts, recency)[2][0]


def _check_systems(systems, longest):
    """Compare every trajectory up to ``longest`` actions (noop and the empty
    one included) and every alpha; return the kinds of alpha met."""
    sig = systems[0].signature
    full = (1 << sig.num_states) - 1
    trajectories = [t for k in range(longest + 1) for t in product(sig.actions, repeat=k)]
    kinds = set()
    for ts in systems:
        for acts, amask in product(trajectories, range(full + 1)):
            assert _padded_core(acts, amask, ts) == _reference(acts, amask, ts), (ts, acts, amask)
            reach = _image(full, _composite(acts, ts))
            kinds.add("empty" if not amask else "full" if amask == full else
                      "reachable" if reach & amask else "unreachable")
    return kinds


@pytest.mark.parametrize("fluents", [1, 2])
def test_every_single_action_system(fluents):
    systems = list(single_action_systems(suite_signature(fluents)))
    assert _check_systems(systems, 2) == {"empty", "full", "reachable", "unreachable"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_three_fluent_systems(seed):
    sig = suite_signature(3)
    kinds = _check_systems([_random_system(random.Random(seed), sig)], 2)
    assert kinds == {"empty", "full", "reachable", "unreachable"}


def test_composite_of_no_actions_is_the_identity():
    # As preimage and padded_view take an empty trajectory: no step at all,
    # or a noop step, leaves every state where it is.
    sig = suite_signature(2)
    for ts in single_action_systems(sig):
        assert _composite((), ts) == tuple(range(sig.num_states))
        assert _composite((NULL_ACTION,), ts) == tuple(range(sig.num_states))
        assert _composite(("a",), ts) == ts.successor_map("a")
