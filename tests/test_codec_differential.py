"""The state-set codec in ``kernel`` against its definitions.

``_members``, ``_mask``, ``_state_mask`` and ``_image`` must agree with the
bit-by-bit definitions below: exhaustively on every mask of at most 12
states, and on sampled masks of up to 2^16 states, narrow and wide, sparse
and dense.  ``evolve`` at 16 fluents must agree with a set-based reference
written here.  Observation members outside the signature are ignored by
``evolve``, ``consistent`` and ``preimage``, as ``iterated_revise`` ignores
them; both still sort tied repairs by the observations as given.
"""

import random
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bevo import (
    NULL_ACTION,
    EvolutionResult,
    Ranking,
    WorldView,
    complete_transitions,
    consistent,
    constant,
    evolve,
    iterated_revise,
    make_signature,
    preimage,
    recency,
    universe,
)
from bevo.kernel import _image, _mask, _members, _state_mask

# -- the definitions -----------------------------------------------------------


def _def_members(mask):
    return frozenset(s for s, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")


def _def_mask(states, width):
    return int("0" + "".join("1" if s in states else "0" for s in reversed(range(width))), 2)


def _def_image(mask, succ):
    return _def_mask({succ[s] for s in _def_members(mask)}, len(succ))


def _def_state_mask_error(states, num_states):
    """The message for the first out-of-range index in iteration order."""
    bad = next((s for s in states if not 0 <= s < num_states), None)
    return None if bad is None else f"state index {bad} out of range"


def _check_codec(mask, width, succ):
    members = _def_members(mask)
    assert _members(mask) == members
    assert _mask(members) == _mask(sorted(members)) == _mask(iter(sorted(members))) == mask
    if width <= 300:  # a generator has no length, so it takes the narrow path
        assert _mask(s for s in members) == mask
    assert _state_mask(members, width) == _state_mask(sorted(members), width) == mask
    assert _image(mask, succ) == _def_image(mask, succ)


# -- exhaustive and sampled codec checks ----------------------------------------


def test_every_mask_of_at_most_twelve_states():
    rng = random.Random(0)
    width = 12
    maps = [tuple(range(width)), (3,) * width, tuple(rng.randrange(width) for _ in range(width))]
    for mask in range(1 << width):
        _check_codec(mask, width, maps[mask % len(maps)])


@st.composite
def _codec_cases(draw):
    width = draw(st.one_of(st.integers(1, 300), st.integers(1, 1 << 16)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.sampled_from((0, 1, 3, 64, 65, width // 2, width)))
    mask = _def_mask(frozenset(rng.sample(range(width), min(k, width))), width)
    succ = tuple(rng.randrange(draw(st.integers(1, width))) for _ in range(width))
    return mask, width, succ


@given(_codec_cases())
@settings(max_examples=40, deadline=None)
def test_sampled_masks_up_to_sixteen_fluents(case):
    _check_codec(*case)


@given(
    st.integers(1, 1 << 16),
    st.integers(0, 2**32),
    st.sampled_from((1, 2, 64, 65, 200)),
)
@settings(max_examples=40, deadline=None)
def test_state_mask_names_the_first_index_out_of_range(num_states, seed, k):
    rng = random.Random(seed)
    edges = (-3, -1, num_states, num_states + 2)
    states = [
        rng.choice(edges) if rng.random() < 0.02 else rng.randrange(num_states)
        for _ in range(k)
    ]
    for make in (list, frozenset, iter):
        given_states = make(states)
        want = _def_state_mask_error(states if make is iter else list(given_states), num_states)
        if want is None:
            got = _state_mask(given_states, num_states)
            assert got == _def_mask(frozenset(states), num_states)
        else:
            with pytest.raises(ValueError) as err:
                _state_mask(given_states, num_states)
            assert str(err.value) == want


@pytest.mark.parametrize("num_states", [4, 64, 65, 1 << 16])
def test_state_mask_rejects_the_first_index_past_the_end(num_states):
    for size in (1, 64, 65, 100):
        states = [*range(min(size, num_states) - 1), num_states]
        with pytest.raises(ValueError, match=f"^state index {num_states} out of range$"):
            _state_mask(states, num_states)


@pytest.mark.parametrize("size", [1, 64, 65, 1000])
def test_mask_rejects_a_negative_state_at_any_size(size):
    states = [*range(size - 1), -1]
    for given_states in (states, frozenset(states), (s for s in states)):
        with pytest.raises(ValueError, match="negative shift count"):
            _mask(given_states)


# -- evolve at 16 fluents against sets ------------------------------------------


def _reference_evolve(kappa, view, ts):
    """Evolution under recency, with sets: keep each observation from the
    last to the first while some initial state satisfies all kept ones, revise
    kappa by the survivors' states nearest to it, then update forward."""
    n = ts.signature.num_states
    full = frozenset(range(n))
    run = list(range(n))
    pre = []
    for a, obs in zip(view.actions, view.observations):
        succ = ts.successor_map(a)
        run = [succ[p] for p in run]
        pre.append({s for s in range(n) if run[s] in obs})
    core = set(range(n))
    kept = set()
    lattice = [i for i, o in enumerate(view.observations) if o != full]
    for i in reversed(lattice):
        if core & pre[i]:
            core &= pre[i]
            kept.add(i)
    distance = {c: min(bin(c ^ k).count("1") for k in kappa) for c in core}
    nearest = min(distance.values())
    beliefs = [frozenset(c for c, d in distance.items() if d == nearest)]
    for a in view.actions:
        succ = ts.successor_map(a)
        beliefs.append(frozenset(succ[s] for s in beliefs[-1]))
    was_consistent = len(kept) == len(lattice)
    weakened = tuple(
        frozenset(o) if i in kept or i not in lattice else full
        for i, o in enumerate(view.observations)
    )
    return EvolutionResult(was_consistent, (weakened,), (tuple(beliefs),))


_SIG16 = make_signature([f"f{k}" for k in range(16)], ["a", "b"])


@pytest.fixture(scope="module")
def system16():
    rng = random.Random(16)
    n = _SIG16.num_states
    return complete_transitions(
        _SIG16, [(s, a, rng.randrange(n)) for a in ("a", "b") for s in range(n)]
    )


@given(st.integers(0, 2**32), st.integers(1, 8))
@settings(max_examples=6, deadline=None)
def test_evolve_at_sixteen_fluents_matches_sets(system16, seed, length):
    rng = random.Random(seed)
    n = _SIG16.num_states
    kappa = frozenset(rng.sample(range(n), rng.choice((1, 4))))
    sizes = (1, n // 64, n // 3, n // 2, n)
    view = WorldView(
        tuple(rng.choice("ab") for _ in range(length)),
        tuple(frozenset(rng.sample(range(n), rng.choice(sizes))) for _ in range(length)),
    )
    assert evolve(kappa, view, system16) == _reference_evolve(kappa, view, system16)


# -- observation members outside the signature ----------------------------------


_SIG2 = make_signature(("p", "q"), ("a",))
_SYSTEMS2 = [
    complete_transitions(_SIG2, [(s, "a", succ[s]) for s in range(4)])
    for succ in [(0, 1, 2, 3), (1, 1, 3, 0), (2, 0, 0, 2), (3, 2, 1, 0)]
]
_STRAY = frozenset({-1, 4, 9, 1 << 40})
_OBSERVATIONS = [frozenset(c) for c in [(), (0,), (1, 3), (0, 1, 2), (0, 1, 2, 3)]]


def _clean(observations):
    return tuple(o & universe(_SIG2) for o in observations)


@pytest.mark.parametrize("ts", _SYSTEMS2)
def test_out_of_range_members_are_ignored_by_evolve_and_preimage(ts):
    for first, second in product(_OBSERVATIONS, repeat=2):
        padded = (first | _STRAY, second | {-1})
        view = WorldView(("a", "noop"), padded)
        clean = WorldView(view.actions, _clean(padded))
        assert consistent(view, ts) == consistent(clean, ts)
        assert preimage(padded[0], ("a",), ts) == preimage(first, ("a",), ts)
        assert preimage(padded[1], ("a", "a"), ts) == preimage(second, ("a", "a"), ts)
        for r in (recency, constant):
            got = evolve(frozenset({0}), view, ts, r=r)
            want = evolve(frozenset({0}), clean, ts, r=r)
            assert got.was_consistent == want.was_consistent
            # Stray members can change the order of tied repairs, not the set.
            assert set(zip(map(_clean, got.repaired_views), got.trajectories)) == set(
                zip(want.repaired_views, want.trajectories)
            )


def test_out_of_range_members_order_tied_repairs_alike_in_iterated_revise_and_evolve():
    # Sorted as given, {-1, 1} comes before the discarded {0, 1, 2, 3}, so
    # the repair that keeps it is revised first and its unranked state 1 is
    # the one named; sorted as encoded, {1} would come after it.
    seq = (frozenset({-1, 1}), frozenset({2}))
    only_zero = lambda kappa: Ranking((0b0001,))
    view = WorldView((NULL_ACTION,) * len(seq), seq)
    identity = complete_transitions(_SIG2, ())
    with pytest.raises(ValueError, match="^state index 1 out of range$"):
        iterated_revise(frozenset({0}), seq, _SIG2, only_zero, constant)
    with pytest.raises(ValueError, match="^state index 1 out of range$"):
        evolve(frozenset({0}), view, identity, only_zero, constant)
