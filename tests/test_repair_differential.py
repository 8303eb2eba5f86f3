"""Repair search against a definitional reference.

The reference walks every initial state through the view with one dict per
step, finds the maximal consistent kept sets by brute force over all subsets
of the repairable positions, and keeps those no other beats in the
reliability order.  ``consistent``, ``minimal_repair_candidates``,
``repairs`` and ``evolve`` must agree with it, exhaustively over every
2-fluent one-action system with views of length at most 2, on sampled
views at 3 and 4 fluents, and on sampled views with 9-12 repairable
positions at 0-2 fluents under tied orders.
"""

from itertools import combinations, product

import hypothesis.strategies as st
from hypothesis import given, settings

from bevo import (
    EvolutionResult,
    WorldView,
    complete_transitions,
    consistent,
    constant,
    dalal_assignment,
    evolve,
    fixed_weights,
    make_signature,
    minimal_repair_candidates,
    recency,
    repairs,
    revise,
    universe,
    update,
)
from bevo.postulates import single_action_systems, state_sets, suite_signature


# -- the reference ------------------------------------------------------------


def _survivors(view, ts, kept):
    walk = {s: s for s in range(ts.signature.num_states)}
    for i, (a, obs) in enumerate(zip(view.actions, view.observations)):
        succ = ts.successor_map(a)
        walk = {s: succ[p] for s, p in walk.items() if i not in kept or succ[p] in obs}
    return frozenset(walk)


def _maximal_kept(view, ts):
    full = universe(ts.signature)
    lattice = [i for i, o in enumerate(view.observations) if o != full]
    subsets = [frozenset(c) for k in range(len(lattice) + 1) for c in combinations(lattice, k)]
    ok = [k for k in subsets if _survivors(view, ts, k)]
    return [k for k in ok if not any(k < other for other in ok)]


def _prefer(a, b, levels, lattice):
    for lev in sorted({levels[i] for i in lattice}):
        at_level = {i for i in lattice if levels[i] == lev}
        if a & at_level != b & at_level:
            return b & at_level < a & at_level
    return False


def _weakened(view, kept, full):
    return tuple(o if i in kept else full for i, o in enumerate(view.observations))


def _sorted_views(views):
    return tuple(sorted(views, key=lambda v: tuple(tuple(sorted(o)) for o in v)))


# -- the comparison -----------------------------------------------------------


def _check(view, ts, kappa, orders):
    sig = ts.signature
    full = universe(sig)
    lattice = [i for i, o in enumerate(view.observations) if o != full]
    everything = frozenset(range(len(view)))
    core = _survivors(view, ts, everything)
    assert consistent(view, ts) == bool(core)
    maximal = _maximal_kept(view, ts)
    assert minimal_repair_candidates(view, ts) == _sorted_views(
        _weakened(view, k, full) for k in maximal
    )

    assign = dalal_assignment(sig)

    def forward(kept):
        trajectory = [revise(kappa, _survivors(view, ts, kept), assign)]
        for a in view.actions:
            trajectory.append(update(trajectory[-1], a, ts))
        return tuple(trajectory)

    if core:
        trajectory = forward(everything)
        assert evolve(kappa, view, ts) == EvolutionResult(
            True, (view.observations,), (trajectory,)
        )
    for r in orders:
        levels = r(len(view))
        best = [
            k for k in maximal
            if not any(_prefer(o, k, levels, lattice) for o in maximal if o != k)
        ]
        expected = _sorted_views(_weakened(view, k, full) for k in best)
        assert repairs(view, ts, r) == expected
        if not core:
            kept = {_weakened(view, k, full): k for k in best}
            assert evolve(kappa, view, ts, r=r) == EvolutionResult(
                False, expected, tuple(forward(kept[v]) for v in expected)
            )


def _primacy(n):
    return tuple(range(n))


def _tied(n):
    return fixed_weights([i // 2 for i in range(n)])(n)


def test_exhaustive_two_fluents_length_two():
    sig = suite_signature(2)
    sets = state_sets(sig)
    kappas = state_sets(sig, include_empty=False)
    orders = (recency, _primacy, constant, _tied)
    checked = 0
    for ts in single_action_systems(sig):
        for acts in (("a",), ("a", "a")):
            for obs in product(sets, repeat=len(acts)):
                _check(WorldView(acts, obs), ts, kappas[checked % len(kappas)], orders)
                checked += 1
    assert checked == 256 * (16 + 256)


@st.composite
def _systems_and_views(draw):
    n = draw(st.integers(3, 4))
    sig = make_signature(tuple("pqrs"[:n]), ("a", "b"))
    size = sig.num_states
    triples = [
        (s, a, draw(st.integers(0, size - 1))) for a in ("a", "b") for s in range(size)
    ]
    ts = complete_transitions(sig, triples)
    length = draw(st.integers(1, 8))
    acts = tuple(draw(st.sampled_from(sig.actions)) for _ in range(length))
    obs = tuple(
        frozenset(draw(st.sets(st.integers(0, size - 1), max_size=size)))
        for _ in range(length)
    )
    kappa = frozenset(draw(st.sets(st.integers(0, size - 1), min_size=1)))
    weights = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    return ts, WorldView(acts, obs), kappa, fixed_weights(weights)


@settings(max_examples=150, deadline=None)
@given(_systems_and_views())
def test_sampled_three_and_four_fluents(case):
    ts, view, kappa, weights = case
    _check(view, ts, kappa, (recency, _primacy, constant, weights))


@st.composite
def _long_tied_views(draw):
    """Views with 9-12 repairable positions at 0-2 fluents, plus up to two trivial ones."""
    sig = make_signature(("p", "q")[: draw(st.integers(0, 2))], ("a",))
    size = sig.num_states
    full = universe(sig)
    targets = st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
    succ = draw(st.one_of(st.just(range(size)), targets))  # identity or random
    ts = complete_transitions(sig, [(s, "a", t) for s, t in enumerate(succ)])
    obs = draw(st.lists(st.sampled_from(state_sets(sig)[:-1]), min_size=9, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        obs.insert(draw(st.integers(0, len(obs))), full)
    kappa = frozenset(draw(st.sets(st.integers(0, size - 1), min_size=1)))
    weights = draw(st.lists(st.integers(0, 1), min_size=len(obs), max_size=len(obs)))
    return ts, WorldView(("a",) * len(obs), tuple(obs)), kappa, fixed_weights(weights)


@settings(max_examples=80, deadline=None)
@given(_long_tied_views())
def test_sampled_long_views_under_tied_orders(case):
    """Long views reach the candidate search under every tied order."""
    ts, view, kappa, weights = case
    _check(view, ts, kappa, (constant, _tied, weights))
