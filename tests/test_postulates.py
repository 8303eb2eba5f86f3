import json

import pytest

import bevo.postulates as postulates
from bevo import (
    Ranking,
    combined_change,
    complete_transitions,
    dalal_assignment,
    universe,
    update,
)
from bevo.postulates import (
    CounterexampleReport,
    Instance,
    ScopeBounds,
    SuiteReport,
    check_I1_I2,
    check_agm,
    check_interaction,
    enumerate_instances,
    evolution_final_state,
    lehmann_counterexample,
    naive_interaction_p5_example,
    naive_two_shot_dp_example,
    run_agm_suite,
    run_dp_suite,
    run_i1i2_suite,
    run_interaction_suite,
    run_lehmann_suite,
    run_suite,
    single_action_systems,
    state_sets,
    suite_signature,
)

from conftest import state_of
from test_suite_golden import _OPERATORS, _believe_last


def test_suite_signature_shape():
    sig = suite_signature(2)
    assert sig.fluents == ("p", "q")
    assert sig.actions == ("a", "noop")
    bare = suite_signature(2, with_action=False)
    assert bare.actions == ("noop",)
    with pytest.raises(ValueError):
        suite_signature(6)


def test_state_sets_mask_order():
    sig = suite_signature(1)
    assert state_sets(sig) == (
        frozenset(),
        frozenset((0,)),
        frozenset((1,)),
        frozenset((0, 1)),
    )
    assert state_sets(sig, include_empty=False)[0] == frozenset((0,))
    assert len(state_sets(sig, include_empty=False)) == 3


def test_single_action_systems_enumeration():
    sig = suite_signature(1)
    systems = list(single_action_systems(sig))
    assert len(systems) == 4
    assert all(ts.deterministic for ts in systems)
    assert systems[0].successor_map("a") == (0, 0)
    assert systems[-1].successor_map("a") == (1, 1)


def test_single_action_systems_needs_one_action():
    with pytest.raises(ValueError):
        next(single_action_systems(suite_signature(1, with_action=False)))


def test_enumerate_instances_exhaustive_count():
    # 256 systems x 15 belief states x 2 one-step trajectories x 16 observations
    n = sum(1 for _ in enumerate_instances(ScopeBounds(fluents=2, trajectory_len=1)))
    assert n == 122_880


def test_enumerate_instances_exhaustive_cap():
    with pytest.raises(ValueError):
        next(enumerate_instances(ScopeBounds(fluents=3)))


def test_enumerate_instances_sampled_deterministic():
    bounds = ScopeBounds(fluents=3, trajectory_len=2, samples=40, seed=7)
    first = list(enumerate_instances(bounds))
    second = list(enumerate_instances(bounds))
    assert len(first) == 40
    assert first == second


def test_evolution_final_state_litmus(litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    red = frozenset(s for s in range(8) if s & state_of(sig, "Red"))
    out = evolution_final_state(kappa, ("dip",), red, litmus.ts, dalal_assignment(sig))
    assert out == frozenset((state_of(sig, "Red", "Acid"),))


def test_check_interaction_consistent_instance():
    sig = suite_signature(2)
    ts = complete_transitions(sig, ())
    inst = Instance(sig, ts, frozenset((0,)), ("a",), (frozenset((1,)),))
    rep = check_interaction(inst)
    assert rep.notes == ("consistent",)
    assert rep.passed


def test_check_interaction_repaired_instance():
    sig = suite_signature(2)
    ts = complete_transitions(sig, ())
    inst = Instance(sig, ts, frozenset((0,)), ("a",), (frozenset(),))
    rep = check_interaction(inst)
    assert rep.notes == ("repaired",)
    assert rep.passed


def test_run_interaction_suite_small_scope():
    rep = run_interaction_suite(fluents=1)
    assert rep.passed
    assert rep.instances > 0
    assert "needed repair" in rep.notes[0]


def test_naive_interaction_p5_example_frozen():
    inst, _assign, report = naive_interaction_p5_example()
    assert inst.ts.successor_map("a") == (0, 0, 0, 1)
    assert inst.kappa == frozenset((0,))
    assert inst.observations == (frozenset((1, 2)),)
    (vio,) = [v for v in report.violations if v.postulate == "P5"]
    assert vio.lhs == frozenset((2,))
    assert vio.rhs == frozenset((0, 1))


def test_check_I1_I2_flags_broken_operator():
    sig = suite_signature(2)
    ts = complete_transitions(sig, ())
    assign = dalal_assignment(sig)

    def stubborn(kappa, action, alpha):
        return kappa

    rep = check_I1_I2(stubborn, assign, ts)
    assert not rep.passed
    assert any(v.postulate == "I1" for v in rep.violations)


def test_run_i1i2_suite_small_scope():
    rep = run_i1i2_suite(fluents=1)
    assert rep.passed
    # 4 systems x 2 actions x 3 belief states x 4 observations
    assert rep.instances == 96


def test_check_agm_dalal_two_fluents():
    sig = suite_signature(2, with_action=False)
    rep = check_agm(dalal_assignment(sig), sig)
    assert rep.passed
    assert rep.instances == 240


def test_check_agm_flags_flat_ranking():
    sig = suite_signature(2, with_action=False)

    def flat(kappa):
        return Ranking(((1 << sig.num_states) - 1,))

    rep = check_agm(flat, sig)
    assert any(v.postulate == "AGM-ii" for v in rep.violations)


def test_run_agm_suite_cap():
    with pytest.raises(ValueError):
        run_agm_suite(4)


def test_run_dp_suite_exhaustive():
    rep = run_dp_suite(fluents=2)
    assert rep.passed
    assert rep.instances == 3_375


_DP_FIRED = {
    "oldest_first": {"DP2"},
    "last_only": {"REC"},
    "two_shot": {"DP1", "DP2", "DP4", "REC"},
    "believe_last": {"DP1", "DP2", "DP3", "REC"},
}


def test_exhaustive_dp_fires_every_postulate_under_broken_operators(monkeypatch):
    """No check of the exhaustive 2-fluent dp suite passes vacuously: the
    broken operators of the golden report tests fire each of them."""
    fired = {}
    for name, operator in dict(_OPERATORS, believe_last=_believe_last).items():
        monkeypatch.setattr(postulates, "iterated_revise", operator)
        rep = run_suite("dp", 2)
        assert rep.instances == 3_375
        fired[name] = {v.postulate for v in rep.violations}
    assert fired == _DP_FIRED
    assert set().union(*fired.values()) == {"DP1", "DP2", "DP3", "DP4", "REC"}


def test_interaction_fires_p1_when_the_observation_is_ignored(monkeypatch):
    """No P1 check passes vacuously: revising by every state, in place of the
    padded view's core, drops the observation from the induced change."""

    def every_state(acts, amask, ts):
        return (1 << ts.signature.num_states) - 1

    monkeypatch.setattr(postulates, "_padded_core", every_state)
    rep = run_interaction_suite(fluents=1, trajectory_len=1)
    assert {v.postulate for v in rep.violations} == {"P1", "P4"}
    assert len(rep.violations) == 36


def test_check_I1_I2_fires_i2_when_unreachable_observations_are_believed():
    """No I2 check passes vacuously: an operator that believes an
    unreachable observation, and is combined change otherwise, fires I2
    alone."""
    sig = suite_signature(1)
    assign = dalal_assignment(sig)
    fired, count = set(), 0
    for ts in single_action_systems(sig):

        def believe_unreachable(kappa, action, alpha):
            if not update(universe(sig), action, ts) & alpha:
                return alpha
            return combined_change(kappa, action, alpha, ts, assign)

        rep = check_I1_I2(believe_unreachable, assign, ts)
        fired |= {v.postulate for v in rep.violations}
        count += len(rep.violations)
    assert fired == {"I2"}
    assert count == 30


def test_run_dp_suite_sampled_path():
    rep = run_dp_suite(fluents=3, samples=300, seed=5)
    assert rep.passed
    assert rep.instances == 300


def test_naive_two_shot_dp_example_frozen():
    vio = naive_two_shot_dp_example()
    assert vio.postulate == "DP2"
    assert vio.instance.kappa == frozenset((0,))
    assert vio.instance.observations == (frozenset((1,)), frozenset((0, 3)))
    assert vio.lhs == frozenset((0, 3))
    assert vio.rhs == frozenset((0,))


def test_run_lehmann_suite_one_fluent_exhaustive():
    rep = run_lehmann_suite(fluents=1)
    assert rep.passed
    assert rep.instances == 861


def test_run_lehmann_suite_sampled_path():
    rep = run_lehmann_suite(fluents=3, samples=200, seed=3)
    assert rep.passed
    assert rep.instances == 200


def test_sampled_dp_and_lehmann_never_build_every_state_set(monkeypatch):
    # At 4 fluents the power set has 65,536 members; a sampled run needs none.
    def refuse(*args, **kwargs):
        raise AssertionError("a sampled run built every subset of the states")

    monkeypatch.setattr(postulates, "state_sets", refuse)
    for name in ("dp", "lehmann"):
        assert run_suite(name, fluents=4, samples=10, seed=0).instances == 10


def test_lehmann_counterexample_frozen():
    rep = lehmann_counterexample()
    assert isinstance(rep, CounterexampleReport)
    assert rep.values == {
        "O": frozenset((2,)),
        "O,O'": frozenset((0,)),
        "O,a,O'": frozenset((1,)),
        "O,a": frozenset((2,)),
        "O,a,g,O'": frozenset((0,)),
        "O,a,a&g,O'": frozenset((1,)),
    }
    assert rep.failed == ("L4", "L5", "L6")
    assert rep.held == ("L2", "L3", "L4*", "L5*", "L6*", "L7")


def test_counterexample_render_and_data():
    rep = lehmann_counterexample()
    text = rep.render_text()
    assert "failed: L4 L5 L6" in text
    assert "after O: { {q} }" in text
    data = rep.to_data()
    json.dumps(data)
    assert data["values"]["O"] == [["q"]]


def test_run_suite_dispatch():
    rep = run_suite("agm", fluents=2)
    assert rep.suite == "agm"
    assert rep.passed
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_suite_report_rendering():
    rep = SuiteReport("demo", "tiny", 3, (), ("a note",))
    assert rep.passed
    assert rep.summary() == "suite=demo scope=[tiny] instances=3 violations=0"
    assert rep.render_text() == "suite=demo scope=[tiny] instances=3 violations=0\na note"
    json.dumps(rep.to_data())


def test_suite_report_rendering_caps_violations():
    vio = naive_two_shot_dp_example()
    rep = SuiteReport("demo", "tiny", 3, (vio,) * 4, ("a note",))
    full = rep.render_text().splitlines()
    assert full == [rep.summary(), "a note"] + [vio.describe()] * 4
    assert rep.render_text(max_violations=4).splitlines() == full
    capped = rep.render_text(max_violations=1).splitlines()
    assert capped == full[:3] + ["... and 3 more violations"]


def test_violation_describe_mentions_states():
    vio = naive_two_shot_dp_example()
    text = vio.describe()
    assert "DP2" in text
    assert "kappa { {} }" in text
    json.dumps(vio.to_data())


@pytest.mark.parametrize(
    "run, bound",
    [
        (lambda: run_interaction_suite(fluents=1, trajectory_len=0), "trajectory_len"),
        (lambda: run_interaction_suite(fluents=1, trajectory_len=0, samples=5), "trajectory_len"),
        (lambda: run_interaction_suite(fluents=2, trajectory_len=-1), "trajectory_len"),
        (lambda: run_lehmann_suite(fluents=1, max_len=0), "max_len"),
        (lambda: run_lehmann_suite(fluents=1, max_len=0, samples=5), "max_len"),
    ],
    ids=[
        "interaction-exhaustive",
        "interaction-sampled",
        "interaction-negative",
        "lehmann-exhaustive",
        "lehmann-sampled",
    ],
)
def test_empty_length_bound_is_rejected(run, bound):
    # A zero bound would leave nothing to check, and the suite would pass.
    with pytest.raises(ValueError, match=f"^{bound} must be at least 1, got -?[0-9]+$"):
        run()


def test_lehmann_length_one_checks_only_l2_in_both_modes(monkeypatch):
    # Only L2 fits in one observation, so both modes check L2 alone.
    def believe_everything(kappa, seq, sig, assign=None):
        return frozenset(range(sig.num_states))

    monkeypatch.setattr(postulates, "iterated_revise", believe_everything)
    for samples in (None, 50):
        rep = run_lehmann_suite(fluents=1, max_len=1, samples=samples)
        assert rep.instances == (9 if samples is None else 50)
        assert {v.postulate for v in rep.violations} == {"L2"}
