"""Small-scope checkers for the rationality properties of the operators.

Each suite quantifies a property family over an exhaustive small scope (two
fluents, one non-noop action) or a seeded random sample, and returns a
report listing every violation together with the instance that produced it.
The suites are deterministic: the same scope, assignment, and seed always
yield the same report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .kernel import (
    NULL_ACTION,
    Signature,
    StateSet,
    TransitionSystem,
    _image,
    _mask,
    _members,
    complete_transitions,
    format_state,
    format_state_set,
    make_signature,
    states_data,
    true_fluents,
    universe,
)
from .update import update, update_seq
from .revision import (
    Ranking,
    RankingAssignment,
    _revised,
    combined_change,
    dalal_assignment,
    revise,
)
from . import evolution
from .evolution import _iterated_final, _plan, _revision_cores, _runs, evolve, iterated_revise
from .evolution import padded_view, preimage, recency

_FLUENT_POOL = ("p", "q", "r", "s", "u")
_SUITE_ACTION = "a"

CombinedOperator = Callable[[StateSet, str, StateSet], StateSet]
TrajectoryOperator = Callable[[StateSet, tuple[str, ...], StateSet], StateSet]


# ---------------------------------------------------------------------------
# Instances and reports.


@dataclass(frozen=True)
class Instance:
    """One concrete input to a postulate check, self-contained for replay."""

    signature: Signature
    ts: Optional[TransitionSystem]
    kappa: StateSet
    actions: tuple[str, ...] = ()
    observations: tuple[StateSet, ...] = ()

    def describe(self) -> str:
        sig = self.signature
        parts = [
            "fluents " + " ".join(sig.fluents),
            "kappa " + format_state_set(sig, self.kappa),
        ]
        if self.ts is not None:
            moves = (
                f"{a}: {format_state(sig, s)} -> {format_state(sig, d)}"
                for s, a, d in sorted(self.ts.relation)
                if a != NULL_ACTION and s != d
            )
            parts.append("transitions " + "; ".join(moves))
        if self.actions:
            parts.append("do " + ",".join(self.actions))
        for i, obs in enumerate(self.observations, start=1):
            parts.append(f"obs{i} " + format_state_set(sig, obs))
        return " | ".join(parts)

    def to_data(self) -> dict:
        sig = self.signature
        data: dict = {
            "fluents": list(sig.fluents),
            "kappa": states_data(sig, self.kappa),
        }
        if self.ts is not None:
            data["transitions"] = [
                [list(true_fluents(sig, s)), a, list(true_fluents(sig, d))]
                for s, a, d in sorted(self.ts.relation)
                if a != NULL_ACTION
            ]
        if self.actions:
            data["actions"] = list(self.actions)
        data["observations"] = [
            states_data(sig, obs) for obs in self.observations
        ]
        return data


@dataclass(frozen=True)
class Violation:
    postulate: str
    instance: Instance
    lhs: StateSet
    rhs: StateSet

    def describe(self) -> str:
        sig = self.instance.signature
        return (
            f"{self.postulate}: {format_state_set(sig, self.lhs)} vs "
            f"{format_state_set(sig, self.rhs)} on [{self.instance.describe()}]"
        )

    def to_data(self) -> dict:
        sig = self.instance.signature
        return {
            "postulate": self.postulate,
            "instance": self.instance.to_data(),
            "lhs": states_data(sig, self.lhs),
            "rhs": states_data(sig, self.rhs),
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    scope: str
    instances: int
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (
            f"suite={self.suite} scope=[{self.scope}] "
            f"instances={self.instances} violations={len(self.violations)}"
        )

    def render_text(self, max_violations: Optional[int] = None) -> str:
        """Summary, notes and one line per violation, at most ``max_violations``."""
        shown = self.violations[:max_violations]
        lines = [self.summary()]
        lines.extend(self.notes)
        lines.extend(v.describe() for v in shown)
        hidden = len(self.violations) - len(shown)
        if hidden > 0:
            lines.append(f"... and {hidden} more violations")
        return "\n".join(lines)

    def to_data(self) -> dict:
        return {
            "suite": self.suite,
            "scope": self.scope,
            "instances": self.instances,
            "passed": self.passed,
            "violations": [v.to_data() for v in self.violations],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Scope enumeration.


def suite_signature(n_fluents: int, with_action: bool = True) -> Signature:
    if not 1 <= n_fluents <= len(_FLUENT_POOL):
        raise ValueError(
            f"suite scopes take 1 to {len(_FLUENT_POOL)} fluents, got {n_fluents}"
        )
    names = _FLUENT_POOL[:n_fluents]
    return make_signature(names, (_SUITE_ACTION,) if with_action else ())


def state_sets(sig: Signature, include_empty: bool = True) -> tuple[StateSet, ...]:
    """Every subset of the state space, ordered by characteristic bitmask."""
    first = 0 if include_empty else 1
    return tuple(map(_members, range(first, 1 << sig.num_states)))


def single_action_systems(sig: Signature) -> Iterator[TransitionSystem]:
    """All deterministic systems over one non-noop action, in a fixed order."""
    actions = [a for a in sig.actions if a != NULL_ACTION]
    if len(actions) != 1:
        raise ValueError("expected a signature with exactly one non-noop action")
    (act,) = actions
    n = sig.num_states
    for succ in product(range(n), repeat=n):
        yield complete_transitions(sig, [(s, act, succ[s]) for s in range(n)])


def _random_system(rng: random.Random, sig: Signature) -> TransitionSystem:
    n = sig.num_states
    triples = [
        (s, a, rng.randrange(n))
        for a in sig.actions
        if a != NULL_ACTION
        for s in range(n)
    ]
    return complete_transitions(sig, triples)


def _require_length(name: str, value: int) -> None:
    """Reject a sequence-length bound that would leave a sweep with nothing."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _instance_masks(
    sig: Signature, trajectory_len: int, samples: Optional[int], seed: int
) -> Iterator[tuple[TransitionSystem, int, tuple, Sequence]]:
    """(system, kappa mask, action trajectory, observation masks) per group
    of instances, which differ only in the observation, over a resolved scope.

    Exhaustive mode (``samples=None``) covers every deterministic
    single-action system, every non-empty belief state, every trajectory
    over both actions up to the length bound, and every observation, so a
    group's masks are all of them.  Sampled mode draws each from the stream
    seeded by ``seed``, in that order, so a group has one observation.
    """
    size = 1 << sig.num_states
    if samples is None:
        lengths = range(1, trajectory_len + 1)
        trajectories = [trj for ln in lengths for trj in product(sig.actions, repeat=ln)]
        for ts in single_action_systems(sig):
            for kmask in range(1, size):
                for acts in trajectories:
                    yield ts, kmask, acts, range(size)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            ts = _random_system(rng, sig)
            kmask, steps = rng.randrange(1, size), rng.randint(1, trajectory_len)
            acts = tuple(rng.choice(sig.actions) for _ in range(steps))
            yield ts, kmask, acts, (rng.randrange(size),)


def _instance(ts: TransitionSystem, kmask: int, acts: tuple[str, ...], amask: int) -> Instance:
    return Instance(ts.signature, ts, _members(kmask), acts, (_members(amask),))


def enumerate_instances(
    fluents: Optional[int] = None,
    trajectory_len: int = 2,
    samples: Optional[int] = None,
    seed: int = 0,
) -> Iterator[Instance]:
    """The instances (system, belief state, action trajectory, observation)
    that ``run_interaction_suite`` checks over the same scope, as
    ``_instance_masks`` gives them, one per observation of each group."""
    _require_length("trajectory_len", trajectory_len)
    sig, _, samples = _suite_scope("interaction", fluents, samples, None)
    for ts, kmask, acts, amasks in _instance_masks(sig, trajectory_len, samples, seed):
        for amask in amasks:
            yield _instance(ts, kmask, acts, amask)


class _Suite(NamedTuple):
    """A suite's runner and default scope, as listed in ``_SUITES``."""

    run: Callable[..., SuiteReport]
    fluents: int  # default fluent count, and the most swept exhaustively
    fallback: Optional[int] = None  # samples drawn above that by default
    with_action: bool = False
    sampled: bool = True  # whether the suite can draw a seeded sample
    most: Optional[int] = None  # the most fluents checked at all, if capped


def _suite_scope(
    name: str, fluents: Optional[int], samples: Optional[int], assign: RankingAssignment | None
) -> tuple[Signature, RankingAssignment, Optional[int]]:
    """Resolve a suite's signature, sample count and assignment, memoised."""
    spec = _SUITES[name]
    if samples is not None and samples < 1:
        raise ValueError(f"the sample count must be at least 1, got {samples}")
    sig = suite_signature(spec.fluents if fluents is None else fluents, spec.with_action)
    if spec.most is not None and len(sig.fluents) > spec.most:
        raise ValueError(f"the {name} suite is capped at {spec.most} fluents, sampled or not")
    if samples is None and len(sig.fluents) > spec.fluents:
        if spec.fallback is None:
            hint = "; set samples" if spec.sampled else ""
            raise ValueError(f"the exhaustive {name} suite is capped at {spec.fluents} fluents{hint}")
        samples = spec.fallback
    return sig, cache(assign if assign is not None else dalal_assignment(sig)), samples


def _scope(sig: Signature, samples: Optional[int], seed: int, exhaustive: str) -> str:
    if samples is None:
        return f"exhaustive fluents={len(sig.fluents)} {exhaustive}"
    return f"sampled fluents={len(sig.fluents)} samples={samples} seed={seed}"


# ---------------------------------------------------------------------------
# Interaction of update and revision.


def evolution_final_state(
    kappa: StateSet,
    actions: tuple[str, ...],
    alpha: StateSet,
    ts: TransitionSystem,
    assign: RankingAssignment | None,
) -> StateSet:
    """Final state of evolving with nothing observed until the end."""
    view = padded_view(actions, alpha, ts.signature)
    return evolve(kappa, view, ts, assign).trajectories[0][-1]


def _interaction_violations(
    alpha: int, final: int, reach: int, base: int
) -> tuple[bool, tuple[tuple[str, int, int], ...]]:
    """Whether the padded view was consistent, and the P1-P5 violations of
    its induced change as (postulate, lhs, rhs).  All are state masks;
    ``reach`` is every state the actions can lead to, ``base`` kappa's update.
    """
    vios = []
    consistent = bool(reach & alpha)
    if consistent:
        if final & ~alpha:
            vios.append(("P1", final, alpha))
    elif final != base:
        vios.append(("P2", final, base))
    met = base & alpha
    if met & ~final:
        vios.append(("P3", met, final))
    if met and final & ~met:
        vios.append(("P4", final, met))
    if final & ~reach:
        vios.append(("P5", final, reach))
    return consistent, tuple(vios)


def _decoded(found: Iterable[tuple[str, int, int]], inst: Instance) -> list[Violation]:
    return [Violation(pid, inst, _members(lhs), _members(rhs)) for pid, lhs, rhs in found]


def _padded_core(acts: tuple[str, ...], amask: int, ts: TransitionSystem) -> int:
    """The mask ``evolution_final_state`` revises kappa by: the one core of
    the padded view's plan under recency."""
    view = padded_view(acts, _members(amask), ts.signature)
    return _plan(view, ts, recency)[2][0]


def _composite(acts: tuple[str, ...], ts: TransitionSystem) -> tuple[int, ...]:
    """The successor function of a whole trajectory: the last run of ``_runs``."""
    *_, run = _runs(acts, ts)
    return tuple(run)


def check_interaction(
    inst: Instance,
    assign: RankingAssignment | None = None,
    operator: TrajectoryOperator | None = None,
) -> SuiteReport:
    """Evaluate the five action/observation interaction properties.

    The induced change is the final state of evolution over the padded view
    unless ``operator`` supplies a different way to compute it.  The note
    records whether the padded view was consistent or needed repair.
    """
    ts = inst.ts
    if ts is None:
        raise ValueError("interaction instances need a transition system")
    alpha = inst.observations[-1]
    reach = update_seq(universe(inst.signature), inst.actions, ts)
    base = update_seq(inst.kappa, inst.actions, ts)
    if operator is None:
        final = evolution_final_state(inst.kappa, inst.actions, alpha, ts, assign)
    else:
        final = operator(inst.kappa, inst.actions, alpha)
    consistent, found = _interaction_violations(*map(_mask, (alpha, final, reach, base)))
    note = "consistent" if consistent else "repaired"
    return SuiteReport("interaction", "instance", 1, tuple(_decoded(found, inst)), (note,))


def run_interaction_suite(
    fluents: Optional[int] = None,
    trajectory_len: int = 2,
    assign: RankingAssignment | None = None,
    samples: Optional[int] = None,
    seed: int = 0,
) -> SuiteReport:
    """Check the interaction properties over a whole scope.

    Violations are reported for consistent instances; instances whose padded
    view needed repair are evaluated too, but their outcome is informational
    and summarised in the notes.

    Each instance is what ``check_interaction`` evaluates, on state masks,
    a group of instances at a time.  A trajectory enters only through its
    composite successor function, so trajectories that share one (``a``,
    ``a,noop`` and ``noop,a``) share, per system, the cores of the padded
    views' plans, one per observation of the group, and the memoised image
    of each mask, and per kappa the group's outcome.  An outcome takes the
    ranking once per kappa and the reachable states and kappa's update once
    per group; an instance in it is one revision, one image and the P1-P5
    tests.  Only a violation is decoded, once per trajectory of the class,
    with that trajectory.
    """
    sig, assign, samples = _suite_scope("interaction", fluents, samples, assign)
    _require_length("trajectory_len", trajectory_len)
    full = (1 << sig.num_states) - 1
    consistent_n = repaired_n = repaired_bad = 0
    vios: list[Violation] = []
    ts = ranked = None
    check = cache(_interaction_violations)
    for group_ts, kmask, acts, amasks in _instance_masks(sig, trajectory_len, samples, seed):
        if group_ts is not ts:
            ts, ranked, plans = group_ts, None, {}
            composite = cache(partial(_composite, ts=ts))
        if kmask != ranked:
            ranked, outcomes = kmask, {}
            ranking = assign(_members(kmask))
        # A group's plan, and per kappa its outcome, see the trajectory only
        # through its composite, so both are keyed by that and the group's
        # observations.
        key = composite(acts), amasks
        outcome = outcomes.get(key)
        if outcome is None:
            plan = plans.get(key)
            if plan is None:
                cores = [_padded_core(acts, amask, ts) for amask in amasks]
                plan = plans[key] = cores, cache(partial(_image, succ=key[0]))
            cores, image = plan
            reach, base = image(full), image(kmask)
            repaired = failures = 0
            found_at = []
            for amask, core in zip(amasks, cores):
                consistent, found = check(amask, image(_revised(core, ranking)), reach, base)
                if not consistent:
                    repaired += 1
                    failures += len(found)
                elif found:
                    found_at.append((amask, found))
            outcome = outcomes[key] = repaired, failures, found_at
        repaired, failures, found_at = outcome
        consistent_n += len(amasks) - repaired
        repaired_n += repaired
        repaired_bad += failures
        for amask, found in found_at:
            vios.extend(_decoded(found, _instance(ts, kmask, acts, amask)))
    scope = _scope(sig, samples, seed, f"trajectories<={trajectory_len}")
    notes = (
        f"{repaired_n} instances needed repair; informational failures "
        f"after repair: {repaired_bad}",
    )
    return SuiteReport("interaction", scope, consistent_n, tuple(vios), notes)


def _prefer_state_assignment(sig: Signature, preferred: int) -> RankingAssignment:
    """Faithful for every base: members rank 0, ``preferred`` 1, the rest 2."""

    def assign(kappa: StateSet) -> Ranking:
        base = _mask(kappa)
        second = (1 << preferred) & ~base
        return Ranking((base, second, (1 << sig.num_states) - 1 - base - second))

    return assign


def naive_interaction_p5_example() -> tuple[Instance, RankingAssignment, SuiteReport]:
    """A consistent two-fluent instance where update-then-revise escapes.

    The naive operator updates through the actions and then revises, never
    reconsidering the initial belief state.  Searches for a system whose
    action cannot reach some state, and a faithful ranking preferring that
    unreachable state; plain revision then leaves the set of reachable
    outcomes, while evolution does not.
    """
    sig = suite_signature(2)
    full = universe(sig)
    kappas = state_sets(sig, include_empty=False)
    for ts in single_action_systems(sig):
        reach = frozenset(ts.successor_map(_SUITE_ACTION))
        if reach == full:
            continue
        unreachable = min(full - reach)
        assign = _prefer_state_assignment(sig, unreachable)
        for kappa in kappas:
            base = update(kappa, _SUITE_ACTION, ts)
            for witness in sorted(reach - base):
                alpha = frozenset((unreachable, witness))
                inst = Instance(sig, ts, kappa, (_SUITE_ACTION,), (alpha,))
                report = check_interaction(
                    inst, assign, lambda k, acts, a: revise(update_seq(k, acts, ts), a, assign)
                )
                if any(v.postulate == "P5" for v in report.violations):
                    return inst, assign, report
    raise RuntimeError("no naive interaction counterexample found")


# ---------------------------------------------------------------------------
# Characterization of one-step combined change.


def check_I1_I2(
    op: CombinedOperator, assign: RankingAssignment, ts: TransitionSystem
) -> SuiteReport:
    """Compare a one-step operator against the two defining identities.

    For every (belief state, action, observation): when the observation is
    reachable the operator must equal revise-by-preimage then update, and
    otherwise it must equal plain update.  That side is computed on masks.
    """
    sig = ts.signature
    sets = state_sets(sig)
    vios: list[Violation] = []
    count = 0
    for action in sig.actions:
        succ = ts.successor_map(action)
        images = [_image(m, succ) for m in range(len(sets))]
        reach = images[-1]
        # The preimage of each reachable observation; None marks I2.
        pres = [_mask(preimage(a, (action,), ts)) if reach & m else None for m, a in enumerate(sets)]
        for kmask, kappa in enumerate(sets[1:], 1):
            ranking = assign(kappa)
            for amask, pre in enumerate(pres):
                count += 1
                got = op(kappa, action, sets[amask])
                if pre is not None:
                    pid, want = "I1", sets[images[_revised(pre, ranking)]]
                else:
                    pid, want = "I2", sets[images[kmask]]
                if got != want:
                    inst = Instance(sig, ts, kappa, (action,), (sets[amask],))
                    vios.append(Violation(pid, inst, got, want))
    return SuiteReport("i1i2", "one system", count, tuple(vios))


def run_i1i2_suite(
    fluents: Optional[int] = None,
    assign: RankingAssignment | None = None,
    samples: Optional[int] = None,
    seed: int = 0,
) -> SuiteReport:
    """Check that one-step combined change matches evolution's identities.

    The operator under test is ``combined_change`` built from the same
    ranking assignment, over every exhaustive system (or a seeded sample).
    """
    sig, assign, samples = _suite_scope("i1i2", fluents, samples, assign)
    if samples is None:
        systems: Iterator[TransitionSystem] = single_action_systems(sig)
    else:
        rng = random.Random(seed)
        systems = (_random_system(rng, sig) for _ in range(samples))
    reports = [
        check_I1_I2(partial(combined_change, ts=ts, assign=assign), assign, ts)
        for ts in systems
    ]
    vios = tuple(v for r in reports for v in r.violations)
    scope = _scope(sig, samples, seed, "systems=all")
    return SuiteReport("i1i2", scope, sum(r.instances for r in reports), vios)


# ---------------------------------------------------------------------------
# Set-level revision laws.


def _agm_iv_v_hold(ra: int, amask: int, row: list[int]) -> bool:
    """Whether AGM-iv and AGM-v hold at alpha for every beta, given AGM-i.

    With K*alpha inside alpha, K*alpha & beta is K*alpha & gamma for
    gamma = alpha & beta, so both laws see beta only through gamma.  They
    hold there exactly when that meet is empty or equals K*gamma.  The step
    gamma = (gamma - 1) & alpha visits each non-zero submask of alpha once
    (Knuth, TAOCP 4A, 7.1.3); gamma = 0 breaks neither law.
    """
    gamma = amask
    while gamma:
        x = ra & gamma
        if x and x != row[gamma]:
            return False
        gamma = (gamma - 1) & amask
    return True


def check_agm(assign: RankingAssignment, sig: Signature) -> SuiteReport:
    """Verify the five set-level revision laws for every pair over ``sig``.

    Laws: (i) the result stays inside the observation; (ii) a compatible
    observation just intersects; (iii) only the empty observation gives an
    empty result; (iv) and (v) relate revision by an intersection to
    intersecting the revision, quantifying over a second observation.
    """
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
            if not ra & comp[amask] and _agm_iv_v_hold(ra, amask, row):
                continue
            for bmask in range(1, size):
                x = ra & bmask
                y = row[amask & bmask]
                if x & comp[y]:
                    record("AGM-iv", kmask, amask, bmask, x, y)
                if x and y & comp[x]:
                    record("AGM-v", kmask, amask, bmask, y, x)
    return SuiteReport("agm", _scope(sig, None, 0, "pairs"), pairs, tuple(vios))


def run_agm_suite(
    fluents: Optional[int] = None, assign: RankingAssignment | None = None
) -> SuiteReport:
    sig, assign, _ = _suite_scope("agm", fluents, None, assign)
    return check_agm(assign, sig)


# ---------------------------------------------------------------------------
# Iterated revision.


def _dp_violations(
    beta: StateSet, alpha: StateSet, two_step: StateSet, direct: StateSet
) -> Iterator[tuple[str, StateSet, StateSet]]:
    """Yield (postulate, lhs, rhs) for each DP law broken at (kappa, beta, alpha).

    ``two_step`` is kappa revised by beta then alpha, ``direct`` by alpha alone.
    """
    if alpha <= beta and two_step != direct:
        yield "DP1", two_step, direct
    if not alpha & beta and two_step != direct:
        yield "DP2", two_step, direct
    if direct <= beta and not two_step <= beta:
        yield "DP3", two_step, beta
    if direct & beta and not two_step & beta:
        yield "DP4", two_step, beta
    if alpha & beta and not two_step <= beta:
        yield "REC", two_step, beta


def run_dp_suite(
    fluents: Optional[int] = None,
    assign: RankingAssignment | None = None,
    samples: Optional[int] = None,
    seed: int = 0,
) -> SuiteReport:
    """Verify the four iterated-revision postulates plus recalcitrance.

    The two-step revision is the one induced by observation-only evolution
    under recency: conflicting evidence keeps the more recent observation.
    Quantifies over non-empty belief states and non-empty observations.
    """
    sig, assign, samples = _suite_scope("dp", fluents, samples, assign)
    rev = partial(revise, assign=assign)
    if samples is None:
        nonempty = state_sets(sig, include_empty=False)
        triples: Iterator[tuple[StateSet, ...]] = product(nonempty, repeat=3)
        rev = cache(rev)  # only the exhaustive sweep repeats (kappa, alpha)
    else:
        rng = random.Random(seed)
        size = 1 << sig.num_states
        triples = (tuple(_members(rng.randrange(1, size)) for _ in range(3)) for _ in range(samples))
    vios: list[Violation] = []
    count = 0
    for kappa, beta, alpha in triples:
        count += 1
        two_step = iterated_revise(kappa, (beta, alpha), sig, assign)
        for pid, lhs, rhs in _dp_violations(beta, alpha, two_step, rev(kappa, alpha)):
            inst = Instance(sig, None, kappa, (), (beta, alpha))
            vios.append(Violation(pid, inst, lhs, rhs))
    return SuiteReport("dp", _scope(sig, samples, seed, "triples"), count, tuple(vios))


def naive_two_shot_dp_example() -> Violation:
    """First instance where two plain revisions break an iterated postulate.

    The second revision reranks around the intermediate belief state and
    forgets the original one, which the iterated postulates do not allow.
    """
    sig = suite_signature(2, with_action=False)
    assign = dalal_assignment(sig)
    nonempty = state_sets(sig, include_empty=False)
    for kappa, beta, alpha in product(nonempty, repeat=3):
        two_step = revise(revise(kappa, beta, assign), alpha, assign)
        direct = revise(kappa, alpha, assign)
        for pid, lhs, rhs in _dp_violations(beta, alpha, two_step, direct):
            return Violation(pid, Instance(sig, None, kappa, (), (beta, alpha)), lhs, rhs)
    raise RuntimeError("no naive two-shot counterexample found")


# ---------------------------------------------------------------------------
# Observation-sequence postulates (Lehmann 1995).
#
# ``fin(seq)`` is the final state of observation-only evolution under
# recency from a fixed kappa.  Each law takes ``fin``, one (prefix, alpha)
# and the beta values it quantifies over, and yields (observations, lhs,
# rhs) per violation.  Sequence components are non-empty, except for the
# complements inside L7.  With a ``suffix`` O', the starred laws become the
# unstarred L4, L5 and L6, which evolution does not satisfy.

_Obs = tuple[StateSet, ...]
_Fin = Callable[[_Obs], StateSet]
_Found = Iterator[tuple[_Obs, StateSet, StateSet]]


def _l2(fin: _Fin, prefix: _Obs, alpha: StateSet, betas: _Obs) -> _Found:
    """The final observation always holds afterwards."""
    got = fin(prefix + (alpha,))
    if not got <= alpha:
        yield prefix + (alpha,), got, alpha


def _l3(fin: _Fin, prefix: _Obs, alpha: StateSet, betas: _Obs) -> _Found:
    """Observing an already believed alpha adds no new belief beta."""
    f_o = fin(prefix)
    if f_o <= alpha:
        f_oa = fin(prefix + (alpha,))
        for beta in betas:
            if f_oa <= beta and not f_o <= beta:
                yield prefix + (alpha, beta), f_o, beta


def _l4(fin: _Fin, prefix: _Obs, alpha: StateSet, betas: _Obs, suffix: _Obs = ()) -> _Found:
    """Appending an observation that is already believed is a no-op."""
    if fin(prefix) <= alpha:
        lhs, rhs = fin(prefix + suffix), fin(prefix + (alpha,) + suffix)
        if lhs != rhs:
            yield prefix + (alpha,) + suffix, lhs, rhs


def _l5(fin: _Fin, prefix: _Obs, alpha: StateSet, betas: _Obs, suffix: _Obs = ()) -> _Found:
    """A weaker observation right before a stronger one is superfluous."""
    for beta in betas:
        lhs, rhs = fin(prefix + (alpha, beta) + suffix), fin(prefix + (beta,) + suffix)
        if lhs != rhs:
            yield prefix + (alpha, beta) + suffix, lhs, rhs


def _l6(fin: _Fin, prefix: _Obs, alpha: StateSet, betas: _Obs, suffix: _Obs = ()) -> _Found:
    """Refining by a live beta equals refining by its meet with alpha."""
    live = fin(prefix + (alpha,))
    for beta in betas:
        if live & beta:
            lhs = fin(prefix + (alpha, beta) + suffix)
            rhs = fin(prefix + (alpha, alpha & beta) + suffix)
            if lhs != rhs:
                yield prefix + (alpha, beta) + suffix, lhs, rhs


def _l7(fin: _Fin, prefix: _Obs, alpha: StateSet, betas: _Obs) -> _Found:
    """Observing alpha's complement just before alpha loses no state alpha alone keeps."""
    lhs = fin(prefix + (alpha,))
    for complement in betas:
        rhs = fin(prefix + (complement, alpha))
        if not lhs <= rhs:
            yield prefix + (alpha,), lhs, rhs


class _Law(NamedTuple):
    name: str
    check: Callable[..., _Found]
    min_prefix: int  # shortest prefix swept
    appended: int  # observations the law appends to its prefix
    betas: Optional[str]  # "every", "nonempty", "below" alpha, "complement"


_LEHMANN = (
    _Law("L2", _l2, 0, 1, None),
    _Law("L3", _l3, 1, 1, "every"),
    _Law("L4*", _l4, 1, 1, None),
    _Law("L5*", _l5, 0, 2, "below"),
    _Law("L6*", _l6, 0, 2, "nonempty"),
    _Law("L7", _l7, 0, 2, "complement"),
)


def _betas(law: _Law, alpha: StateSet, pool: _Obs, full: StateSet) -> _Obs:
    """The beta values ``law`` quantifies over for ``alpha``, drawn from ``pool``."""
    if law.betas is None:
        return ()
    if law.betas == "complement":
        return (full - alpha,)
    if law.betas == "below":
        return tuple(beta for beta in pool if beta <= alpha)
    return pool


def _lehmann_fins(sig: Signature, assign: RankingAssignment, kappas: _Obs) -> dict[StateSet, _Fin]:
    """Each kappa's memoised ``fin``: while ``iterated_revise`` is bevo's own
    (both names read now, so a tracer wrapping both alike keeps this path),
    a sequence's cores are shared across kappa and each kappa revises once
    per core; a swapped-in operator is called once per kappa and sequence."""
    if iterated_revise is not evolution.iterated_revise:
        return {k: cache(partial(iterated_revise, k, sig=sig, assign=assign)) for k in kappas}
    cores = cache(partial(_revision_cores, sig=sig, r=recency))

    def fin(kappa: StateSet) -> _Fin:
        final = cache(partial(_iterated_final, ranking=assign(kappa)))
        return cache(lambda seq: final(cores(seq)))

    return {k: fin(k) for k in kappas}


def run_lehmann_suite(
    fluents: Optional[int] = None,
    assign: RankingAssignment | None = None,
    max_len: int = 3,
    samples: Optional[int] = None,
    seed: int = 0,
) -> SuiteReport:
    """Verify the observation-sequence postulates that evolution satisfies.

    Sweeps each law of ``_LEHMANN`` over every non-empty kappa, prefix and
    alpha whose sequences fit in ``max_len``, or checks a seeded stream of
    ``samples`` single draws.  Each beta value counts as one instance.
    """
    sig, assign, samples = _suite_scope("lehmann", fluents, samples, assign)
    _require_length("max_len", max_len)
    full = universe(sig)
    vios: list[Violation] = []
    count = 0

    def check(
        law: _Law, kappa: StateSet, fin: _Fin, prefix: _Obs, alpha: StateSet, betas: _Obs
    ) -> None:
        nonlocal count
        count += len(betas) or 1
        for obs, lhs, rhs in law.check(fin, prefix, alpha, betas):
            vios.append(Violation(law.name, Instance(sig, None, kappa, (), obs), lhs, rhs))

    if samples is None:
        if max_len > 3:
            raise ValueError("the exhaustive sequence sweep is capped at length 3")
        every = state_sets(sig)
        nonempty = every[1:]
        fins = _lehmann_fins(sig, assign, nonempty)
        for law in _LEHMANN:
            # Prefixes as long as leave room for what the law appends.
            lengths = range(law.min_prefix, max_len - law.appended + 1)
            prefixes = [seq for ln in lengths for seq in product(nonempty, repeat=ln)]
            pool = every if law.betas == "every" else nonempty
            alphas = [(alpha, _betas(law, alpha, pool, full)) for alpha in nonempty]
            for kappa in nonempty:
                for prefix in prefixes:
                    for alpha, betas in alphas:
                        check(law, kappa, fins[kappa], prefix, alpha, betas)
    else:
        rng, size = random.Random(seed), 1 << sig.num_states

        def draw() -> StateSet:
            return _members(rng.randrange(1, size))

        # Draw kappa, alpha, beta, the law, then a prefix one shorter than
        # the sweep's longest for the laws that need one, which get (beta,)
        # if it comes out empty.  L5* needs beta below alpha.  Only the laws
        # whose shortest sequence fits in max_len are drawn, as in the sweep.
        laws = [law for law in _LEHMANN if law.min_prefix + law.appended <= max_len]
        for _ in range(samples):
            kappa, alpha, beta = draw(), draw(), draw()
            law = laws[rng.randrange(len(laws))]
            longest = max_len - law.appended - law.min_prefix
            prefix = tuple(draw() for _ in range(rng.randint(0, longest)))
            prefix = prefix or (beta,) * law.min_prefix
            if law.betas == "below":
                alpha, beta = alpha | beta, alpha & beta or alpha
            fin = partial(iterated_revise, kappa, sig=sig, assign=assign)
            check(law, kappa, fin, prefix, alpha, _betas(law, alpha, (beta,), full))
    scope = _scope(sig, samples, seed, f"len<={max_len}")
    return SuiteReport("lehmann", scope, count, tuple(vios))


# ---------------------------------------------------------------------------
# The fixed sequence counterexample.


@dataclass(frozen=True)
class CounterexampleReport:
    """Evaluation of the three-state sequence example.

    ``values`` maps a label for each evaluated observation sequence to the
    resulting belief state.  ``failed`` lists the unstarred sequence
    postulates the example refutes; ``held`` lists the postulates that
    still pass on the same instance.
    """

    signature: Signature
    values: dict[str, StateSet]
    failed: tuple[str, ...]
    held: tuple[str, ...]

    def render_text(self) -> str:
        lines = [
            f"after {label}: {format_state_set(self.signature, val)}"
            for label, val in self.values.items()
        ]
        lines.append("failed: " + " ".join(self.failed))
        lines.append("held: " + " ".join(self.held))
        return "\n".join(lines)

    def to_data(self) -> dict:
        return {
            "values": {
                label: states_data(self.signature, val)
                for label, val in self.values.items()
            },
            "failed": list(self.failed),
            "held": list(self.held),
        }


def lehmann_counterexample() -> CounterexampleReport:
    """Build the fixed instance on which discarding-then-reusing fails.

    Over states s1, s2, s3 (the all-false state, p alone, q alone; the
    fourth state ranks strictly worse under the Hamming assignment), the
    sequences O = <{s3}>, alpha = {s2,s3}, beta = {s3}, O' = <{s1,s2}> and
    gamma = {s1,s3} separate the unstarred postulates from the starred
    ones: an observation that was superfluous when made can still matter
    once later observations arrive.  Every law is checked at prefix O and
    alpha; L6 and L6* quantify over gamma, the other laws over beta.
    """
    sig = suite_signature(2, with_action=False)
    assign = dalal_assignment(sig)
    s1, s2, s3 = 0, 1, 2
    kappa = frozenset((s1,))
    o = frozenset((s3,))
    alpha = frozenset((s2, s3))
    beta = frozenset((s3,))
    o_prime = frozenset((s1, s2))
    gamma = frozenset((s1, s3))

    # The Hamming assignment must realize the single revisions the example
    # is built from; anything else would invalidate the whole report.
    prelude = {o: o, o_prime: kappa, frozenset((s2,)): frozenset((s2,)), kappa: kappa}
    for a, want in prelude.items():
        got = revise(kappa, a, assign)
        if got != want:
            raise RuntimeError(f"ranking fails to realize {a} -> {want}, got {got}")

    fin = partial(iterated_revise, kappa, sig=sig, assign=assign)
    values = {
        "O": fin((o,)),
        "O,O'": fin((o, o_prime)),
        "O,a,O'": fin((o, alpha, o_prime)),
        "O,a": fin((o, alpha)),
        "O,a,g,O'": fin((o, alpha, gamma, o_prime)),
        "O,a,a&g,O'": fin((o, alpha, gamma & alpha, o_prime)),
    }

    # The unstarred L4, L5 and L6 first, then the six laws as swept.
    verdicts = [(law.name[:-1], law, {"suffix": (o_prime,)}) for law in _LEHMANN if "*" in law.name]
    verdicts += [(law.name, law, {}) for law in _LEHMANN]
    failed, held = [], []
    for name, law, suffix in verdicts:
        pool = (gamma,) if law.name == "L6*" else (beta,)
        betas = _betas(law, alpha, pool, universe(sig))
        broken = any(True for _ in law.check(fin, (o,), alpha, betas, **suffix))
        (failed if broken else held).append(name)
    return CounterexampleReport(sig, values, tuple(failed), tuple(held))


# ---------------------------------------------------------------------------
# Suite dispatch for the command line.


_SUITES = {
    "interaction": _Suite(run_interaction_suite, 2, with_action=True),
    "agm": _Suite(run_agm_suite, 3, sampled=False),
    "dp": _Suite(run_dp_suite, 2, fallback=20000),
    "lehmann": _Suite(run_lehmann_suite, 2, fallback=20000),
    # Each system is checked over every belief state and observation.
    "i1i2": _Suite(run_i1i2_suite, 2, with_action=True, most=3),
}


def run_suite(
    name: str,
    fluents: Optional[int] = None,
    samples: Optional[int] = None,
    seed: int = 0,
) -> SuiteReport:
    """Run one named suite with its default scope unless overridden."""
    spec = _SUITES.get(name)
    if spec is None:
        raise ValueError(f"unknown suite {name!r}")
    if spec.sampled:
        return spec.run(fluents, samples=samples, seed=seed)
    if samples is not None:
        raise ValueError(f"the {name} suite has no sampled mode")
    return spec.run(fluents)
