import argparse
import ast
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import bevo.evolution as evolution
import bevo.revision as revision
import bevo.postulates as postulates
from bevo import (
    Ranking,
    combined_change,
    complete_transitions,
    dalal_assignment,
    universe,
    update,
)
from bevo.cli import _parser, main
from bevo.postulates import (
    CounterexampleReport,
    Instance,
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
    n = sum(1 for _ in enumerate_instances(fluents=2, trajectory_len=1))
    assert n == 122_880


def test_enumerate_instances_exhaustive_cap():
    with pytest.raises(ValueError):
        next(enumerate_instances(fluents=3))


def test_enumerate_instances_sampled_deterministic():
    first = list(enumerate_instances(fluents=3, trajectory_len=2, samples=40, seed=7))
    second = list(enumerate_instances(fluents=3, trajectory_len=2, samples=40, seed=7))
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


def test_check_interaction_fires_p2_when_a_repair_is_not_the_update():
    """No P2 check passes vacuously: on a repaired instance, an operator that
    answers with more than kappa's update fires P2 alone."""
    sig = suite_signature(2)
    ts = complete_transitions(sig, ())
    inst = Instance(sig, ts, frozenset((0,)), ("a",), (frozenset(),))
    rep = check_interaction(inst, operator=lambda kappa, acts, alpha: frozenset((0, 1)))
    assert rep.notes == ("repaired",)
    assert [(v.postulate, v.lhs, v.rhs) for v in rep.violations] == [
        ("P2", frozenset((0, 1)), frozenset((0,)))
    ]


def test_check_interaction_fires_p3_when_part_of_the_update_is_dropped():
    """No P3 check passes vacuously: an operator that keeps one state of
    kappa's update met with the observation fires P3 alone."""
    sig = suite_signature(2)
    ts = complete_transitions(sig, ())
    inst = Instance(sig, ts, frozenset((0, 1)), ("a",), (frozenset((0, 1, 2)),))
    rep = check_interaction(inst, operator=lambda kappa, acts, alpha: frozenset((0,)))
    assert rep.notes == ("consistent",)
    assert [(v.postulate, v.lhs, v.rhs) for v in rep.violations] == [
        ("P3", frozenset((0, 1)), frozenset((0,)))
    ]


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


def test_run_lehmann_suite_caps_the_exhaustive_length():
    with pytest.raises(ValueError, match="^the exhaustive sequence sweep is capped at length 3$"):
        run_lehmann_suite(fluents=1, max_len=4)


def test_check_interaction_needs_a_transition_system():
    sig = suite_signature(1)
    inst = Instance(sig, None, frozenset((0,)), ("a",), (frozenset((1,)),))
    with pytest.raises(ValueError, match="^interaction instances need a transition system$"):
        check_interaction(inst)


def test_sampled_dp_and_lehmann_never_build_every_state_set(monkeypatch):
    # At 4 fluents the power set has 65,536 members; a sampled run needs none.
    def refuse(*args, **kwargs):
        raise AssertionError("a sampled run built every subset of the states")

    monkeypatch.setattr(postulates, "state_sets", refuse)
    for name in ("dp", "lehmann"):
        assert run_suite(name, fluents=4, samples=10, seed=0).instances == 10


@pytest.mark.parametrize("fluents", [4, 5])
@pytest.mark.parametrize("samples", [None, 3])
def test_i1i2_above_three_fluents_is_refused_at_once(monkeypatch, capsys, fluents, samples):
    # Each system is checked over every belief state and observation: 2^32
    # state sets at 5 fluents, so no sample count makes these scopes feasible.
    def refuse(*args, **kwargs):
        raise AssertionError("the i1i2 suite built every subset of the states")

    monkeypatch.setattr(postulates, "state_sets", refuse)
    with pytest.raises(ValueError) as e:
        run_suite("i1i2", fluents=fluents, samples=samples)
    assert str(e.value) == "the i1i2 suite is capped at 3 fluents, sampled or not"
    argv = ["check", "--suite", "i1i2", "--fluents", str(fluents)]
    assert main(argv + ["--samples", str(samples)] * (samples is not None)) == 1
    assert capsys.readouterr().err == f"bevo: error: {e.value}\n"


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


def test_suite_runners_rank_each_belief_state_once_and_check_agm_does_not():
    # Each run_*_suite caches the ranking of each belief state through
    # _suite_scope; check_agm uses the assignment it is given, uncached.
    sig = suite_signature(1, with_action=False)
    dalal = dalal_assignment(sig)

    def calls_per_kappa(run):
        calls = Counter()

        def counting(kappa):
            calls[kappa] += 1
            return dalal(kappa)

        run(counting)
        return calls

    kappas = set(state_sets(sig, include_empty=False))
    for run in (run_interaction_suite, run_i1i2_suite, run_agm_suite, run_dp_suite, run_lehmann_suite):
        calls = calls_per_kappa(lambda assign: run(fluents=1, assign=assign))
        assert set(calls) == kappas and max(calls.values()) == 1, run.__name__
    calls = calls_per_kappa(lambda assign: check_agm(assign, sig))
    assert set(calls) == kappas and min(calls.values()) > 1


def test_lehmann_sweep_shares_cores_only_under_bevos_own_operator(monkeypatch):
    # The exhaustive sweep takes its shared-core path while
    # postulates.iterated_revise is evolution.iterated_revise, read at call
    # time, and calls a swapped-in operator once per kappa and sequence.
    # The sampled stream and the counterexample take the same two routes.
    want = run_lehmann_suite(fluents=1)
    sampled = run_lehmann_suite(fluents=3, samples=200)
    example = lehmann_counterexample()
    real = evolution.iterated_revise
    calls = Counter()

    def counting(kappa, seq, *args, **kwargs):
        calls[kappa, seq] += 1
        return real(kappa, seq, *args, **kwargs)

    # One wrapper under both names, as a tracer installs it.
    monkeypatch.setattr(evolution, "iterated_revise", counting)
    monkeypatch.setattr(postulates, "iterated_revise", counting)
    assert run_lehmann_suite(fluents=1) == want
    assert run_lehmann_suite(fluents=3, samples=200) == sampled
    assert lehmann_counterexample() == example
    assert not calls

    monkeypatch.setattr(evolution, "iterated_revise", real)
    assert run_lehmann_suite(fluents=1) == want
    # Every non-empty sequence of length 1-3, and L7's (empty, full) after a
    # prefix of length 0 or 1.
    n = len(state_sets(suite_signature(1), include_empty=False))
    assert set(calls.values()) == {1}
    assert len(calls) == n * (n + n**2 + n**3 + 1 + n)

    calls.clear()
    assert run_lehmann_suite(fluents=3, samples=200) == sampled
    assert calls
    calls.clear()
    assert lehmann_counterexample() == example
    assert calls


@pytest.mark.parametrize(
    "name, run, fluents",
    [("revise", run_agm_suite, 2), ("combined_change", run_i1i2_suite, 1)],
)
def test_agm_and_i1i2_take_lane_words_only_under_bevos_own_operator(monkeypatch, name, run, fluents):
    # run_agm_suite and run_i1i2_suite rank every kappa once into lane words
    # while postulates' operator is revision's, read at call time, and call
    # a swapped-in operator once per (kappa, alpha), or once per instance.
    want = run(fluents)
    real = getattr(revision, name)
    calls = Counter()

    def counting(kappa, *args, **kwargs):
        calls[kappa, *args, *kwargs.values()] += 1
        return real(kappa, *args, **kwargs)

    # One wrapper under both names, as a tracer installs it.
    monkeypatch.setattr(revision, name, counting)
    monkeypatch.setattr(postulates, name, counting)
    assert run(fluents) == want
    assert not calls

    monkeypatch.setattr(revision, name, real)
    assert run(fluents) == want
    assert set(calls.values()) == {1}
    size = len(state_sets(suite_signature(fluents)))
    assert len(calls) == ((size - 1) * size if run is run_agm_suite else want.instances)


@pytest.mark.parametrize("fluents", [1, 2])
@pytest.mark.parametrize(
    "strata, agm, i1i2",
    [
        # Partial: revision by an ungraded state raises, as it always has.
        ((0b0001, 0b0100), "state index 1 out of range", "state index 1 out of range"),
        ((0b10,), "state index 0 out of range", "state index 0 out of range"),
        # Grading a state outside the signature: the per-call route revises
        # around it and combined change fails on its missing successor.
        ((0b1, 0b11110), None, "tuple index out of range"),
    ],
)
def test_rankings_off_the_signature_keep_the_per_call_route(strata, agm, i1i2, fluents):
    sig = suite_signature(fluents, with_action=False)

    def assign(kappa):
        return Ranking(strata)

    assert postulates._lane_route(sig, assign) is None
    if agm is None:
        assert run_agm_suite(fluents, assign) == check_agm(assign, sig)
    else:
        with pytest.raises(ValueError, match=f"^{agm}$"):
            run_agm_suite(fluents, assign)
    with pytest.raises((ValueError, IndexError), match=f"^{i1i2}$"):
        run_i1i2_suite(fluents, assign)


@pytest.mark.parametrize("samples", [None, 5])
def test_lehmann_refuses_a_final_state_outside_the_signature(monkeypatch, samples):
    # A sweep packs each kappa's final state into num_states bits of one
    # word; a state index past them would land in the next kappa's bits.
    def outside(kappa, seq, sig, assign=None):
        return frozenset((sig.num_states,))

    monkeypatch.setattr(postulates, "iterated_revise", outside)
    with pytest.raises(ValueError, match="^state index 2 out of range$"):
        run_lehmann_suite(fluents=1, max_len=2, samples=samples)
    with pytest.raises(ValueError, match="^state index 4 out of range$"):
        lehmann_counterexample()


def test_agm_refuses_a_revision_outside_the_signature(monkeypatch):
    # check_agm packs K*alpha for each kappa into num_states bits of one
    # word per alpha; a state index past them would land in the next
    # kappa's bits.
    def outside(kappa, alpha, assign):
        return frozenset(alpha) | {2}

    monkeypatch.setattr(postulates, "revise", outside)
    sig = suite_signature(1, with_action=False)
    with pytest.raises(ValueError, match="^state index 2 out of range$"):
        check_agm(dalal_assignment(sig), sig)
    with pytest.raises(ValueError, match="^state index 2 out of range$"):
        run_agm_suite(fluents=1)


def test_enumerate_instances_takes_the_interaction_suites_default_scope():
    def defaults(fn):
        params = inspect.signature(fn).parameters.values()
        return {p.name: p.default for p in params if p.name != "assign"}

    assert defaults(enumerate_instances) == defaults(run_interaction_suite)
    # Every instance is either counted or reported as repaired.
    rep = run_interaction_suite(fluents=1)
    repaired = int(rep.notes[0].split()[0])
    assert sum(1 for _ in enumerate_instances(fluents=1)) == rep.instances + repaired


def test_cli_suite_choices_are_the_suites():
    # cli keeps its own copy of the names so that it need not import postulates.
    (commands,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    (suite,) = (a for a in commands.choices["check"]._actions if a.dest == "suite")
    assert list(suite.choices) == list(postulates._SUITES)


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
        (lambda: next(enumerate_instances(fluents=1, trajectory_len=0)), "trajectory_len"),
        (lambda: run_lehmann_suite(fluents=1, max_len=0), "max_len"),
        (lambda: run_lehmann_suite(fluents=1, max_len=0, samples=5), "max_len"),
    ],
    ids=[
        "interaction-exhaustive",
        "interaction-sampled",
        "interaction-negative",
        "enumerate-instances",
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


# The test that pins each postulate ID firing, as path::function from the
# repository root.
_HERE = "tests/test_postulates.py::"
_AGM = "tests/test_agm_differential.py::test_small_scopes"
_PINS = {
    "P1": _HERE + "test_interaction_fires_p1_when_the_observation_is_ignored",
    "P2": _HERE + "test_check_interaction_fires_p2_when_a_repair_is_not_the_update",
    "P3": _HERE + "test_check_interaction_fires_p3_when_part_of_the_update_is_dropped",
    "P4": _HERE + "test_interaction_fires_p1_when_the_observation_is_ignored",
    "P5": _HERE + "test_naive_interaction_p5_example_frozen",
    "I1": _HERE + "test_check_I1_I2_flags_broken_operator",
    "I2": _HERE + "test_check_I1_I2_fires_i2_when_unreachable_observations_are_believed",
    "AGM-i": _AGM,
    "AGM-ii": _HERE + "test_check_agm_flags_flat_ranking",
    "AGM-iii": _AGM,
    "AGM-iv": _AGM,
    "AGM-v": _AGM,
    **dict.fromkeys(
        ("DP1", "DP2", "DP3", "DP4", "REC"),
        _HERE + "test_exhaustive_dp_fires_every_postulate_under_broken_operators",
    ),
    **dict.fromkeys(
        ("L2", "L3", "L4*", "L5*", "L6*", "L7"),
        "tests/test_suite_golden.py::test_report_digest_under_broken_operator",
    ),
}


def test_every_postulate_id_has_a_test_that_pins_it_firing():
    """The pin table covers exactly the IDs ``postulates.py`` defines: its
    string literals of the ID shapes and the names of ``_LEHMANN``."""
    source = Path(postulates.__file__).read_text()
    literals = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    ids = {s for s in literals if re.fullmatch(r"P\d|I\d|AGM-[iv]+|DP\d|REC", s)}
    ids |= {law.name for law in postulates._LEHMANN}
    assert set(_PINS) == ids
    root = Path(__file__).parent.parent
    for pin in set(_PINS.values()):
        path, name = pin.split("::")
        tree = ast.parse((root / path).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, pin
