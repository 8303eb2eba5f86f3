"""The definitional reference agrees with bevo on small cases.

Exhaustive at two fluents: image and pre-image on every one-action
deterministic system; revision on every belief/observation pair; evolution
and repairs on every system with every pair of observations after the
history a0 a0, and on five systems with every belief, every length-2
history and every pair of observations.  At three fluents revision and
``models`` are exhaustive, while evolution and repairs are checked on 400
seeded random views (the space of views is too large to enumerate).
"""

import random
from itertools import combinations, product

import pytest

import bevo
import inputs
import reference


def subsets(n_states):
    return [
        frozenset(c) for k in range(n_states + 1) for c in combinations(range(n_states), k)
    ]


def one_action_domain(succ_row, n):
    succ = {"a0": [(t,) for t in succ_row]}
    fluents = inputs.fluent_names(n)
    return reference.Domain("t", fluents, succ, True, inputs.domain_text("t", fluents, succ, True))


def test_image_and_preimage_every_two_fluent_system():
    for row in product(range(4), repeat=4):
        dom = one_action_domain(row, 2)
        ts = bevo.parse_domain(dom.text).ts
        for alpha in subsets(4):
            for acts in (("a0",), ("a0", "a0"), ("noop", "a0")):
                assert bevo.preimage(alpha, acts, ts) == reference.preimage(dom, alpha, acts)
            if alpha:
                assert bevo.update(alpha, "a0", ts) == reference.image(dom, alpha, "a0")


@pytest.mark.parametrize("n", [2, 3])
def test_dalal_revision_every_pair(n):
    sig = bevo.make_signature(inputs.fluent_names(n))
    assign = bevo.dalal_assignment(sig)
    sets = subsets(1 << n)
    for kappa in sets[1:]:
        for alpha in sets:
            assert bevo.revise(kappa, alpha, assign) == reference.dalal_revise(kappa, alpha)


@pytest.mark.parametrize("n", [2, 3])
def test_models_of_every_small_formula(n):
    sig = bevo.make_signature(inputs.fluent_names(n))
    lits = [("lit", k, v) for k in range(n) for v in (True, False)]
    formulas = lits + [(op, a, b) for op in ("&", "|", "->") for a in lits for b in lits]
    formulas += [("not", f) for f in formulas]
    for f in formulas:
        got = bevo.models(bevo.parse_formula(inputs.render(f, sig.fluents), sig), sig)
        assert got == reference.models(f, 1 << n)


def reliability(levels, kind):
    return {"recency": bevo.recency, "constant": bevo.constant}.get(kind) or bevo.fixed_weights(levels)


def assert_same_evolution(dom, ts, kappa, acts, obs, kind, levels):
    consistent, views, trajs = reference.evolve_sets(dom, kappa, acts, obs, levels)
    view = bevo.WorldView(tuple(acts), tuple(obs))
    got = bevo.evolve(kappa, view, ts, None, reliability(levels, kind))
    assert got.was_consistent == consistent
    assert list(got.repaired_views) == [tuple(v) for v in views]
    assert list(got.trajectories) == [tuple(t) for t in trajs]
    if not consistent:
        assert list(bevo.repairs(view, ts, reliability(levels, kind))) == [tuple(v) for v in views]


def test_evolution_and_repairs_every_two_fluent_system():
    kappa = frozenset({0, 3})
    for row in product(range(4), repeat=4):
        dom = one_action_domain(row, 2)
        ts = bevo.parse_domain(dom.text).ts
        for obs in product(subsets(4), repeat=2):
            for kind in ("recency", "constant"):
                levels = reference.reliability_levels(kind, 2)
                assert_same_evolution(dom, ts, kappa, ("a0", "a0"), obs, kind, levels)


def test_evolution_and_repairs_every_two_fluent_view_and_belief():
    for row in [(0, 0, 0, 0), (1, 2, 3, 0), (3, 3, 0, 1), (0, 1, 2, 3), (2, 0, 2, 1)]:
        dom = one_action_domain(row, 2)
        ts = bevo.parse_domain(dom.text).ts
        for kappa in subsets(4)[1:]:
            for acts in product(("a0", "noop"), repeat=2):
                for obs in product(subsets(4), repeat=2):
                    for kind in ("recency", "constant"):
                        levels = reference.reliability_levels(kind, 2)
                        assert_same_evolution(dom, ts, kappa, acts, obs, kind, levels)


def test_evolution_and_repairs_sampled_three_fluent_views():
    rng = random.Random(7)
    dom = inputs.deterministic_domain(rng, "t3", 3)
    ts = bevo.parse_domain(dom.text).ts
    sets = subsets(8)
    for _ in range(400):
        length = rng.randint(2, 5)
        acts = [rng.choice(inputs.ACTIONS + ("noop",)) for _ in range(length)]
        obs = [rng.choice(sets) for _ in range(length)]
        kind = rng.choice(("recency", "constant", "weights"))
        weights = [rng.randrange(3) for _ in range(length)]
        levels = reference.reliability_levels(kind, length, weights)
        kappa = frozenset(rng.sample(range(8), rng.randint(1, 3)))
        assert_same_evolution(dom, ts, kappa, acts, obs, kind, levels)


def test_generated_domains_round_trip():
    for scale in ("tiny", "full"):
        for dom in inputs.repair_domains(3, scale).values():
            assert bevo.serialize_domain(bevo.parse_domain(dom.text)) == dom.text


def test_generated_pools_are_reproducible_and_checked():
    doms = inputs.repair_domains(5, "tiny")
    ops = inputs.repair_pool(5, doms, "tiny")
    assert ops == inputs.repair_pool(5, inputs.repair_domains(5, "tiny"), "tiny")
    consistent = [reference.evolution(doms[op["domain"]], op)[0] for op in ops]
    assert consistent.count(True) * 3 == len(ops)
