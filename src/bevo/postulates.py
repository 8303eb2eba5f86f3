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
from functools import cache, lru_cache, partial, reduce
from itertools import chain, product, takewhile, zip_longest
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .kernel import (
    NULL_ACTION,
    Signature,
    StateSet,
    TransitionSystem,
    _image,
    _mask,
    _members,
    _state_mask,
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
from . import evolution, revision
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
        parts = ["fluents " + " ".join(sig.fluents), "kappa " + format_state_set(sig, self.kappa)]
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
        data: dict = {"fluents": list(sig.fluents), "kappa": states_data(sig, self.kappa)}
        if self.ts is not None:
            data["transitions"] = [
                [list(true_fluents(sig, s)), a, list(true_fluents(sig, d))]
                for s, a, d in sorted(self.ts.relation)
                if a != NULL_ACTION
            ]
        if self.actions:
            data["actions"] = list(self.actions)
        data["observations"] = [states_data(sig, obs) for obs in self.observations]
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
    acts = [a for a in sig.actions if a != NULL_ACTION]
    return complete_transitions(sig, [(s, a, rng.randrange(n)) for a in acts for s in range(n)])


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
# Lane words: lane i, ``num_states`` bits wide, holds a state mask for the
# i-th kappa.  A law yields hits (postulate, broken lanes by their top bit,
# observation masks, lhs and rhs words) for ``_lane_violations`` to decode.

_Obs = tuple[StateSet, ...]
_Seq = tuple[int, ...]
_Hits = Iterable[tuple[str, int, _Seq, int, int]]


class _Lanes(NamedTuple):
    """The constants that split words into lanes, and ``fin`` as lane words."""

    unit: int  # each lane's lowest bit: a mask times ``unit`` is in every lane
    low: int  # each lane's bits below its top one
    high: int  # each lane's top bit
    width: int  # each lane's bits: ``num_states``
    fin: Optional[Callable[[_Seq], int]] = None

    def nonempty(self, x: int) -> int:
        """The top bit of each lane of ``x`` with a state: a low bit carries into it."""
        return ((x & self.low) + self.low | x) & self.high

    def least(self, strata: Iterable[int], x: int) -> int:
        """Per lane, the states of ``x`` in the first stratum that meets it."""
        found = 0
        for stratum in strata:
            met = self.nonempty(stratum & x)
            found |= stratum & x
            x &= ~((met << 1) - (met >> self.width - 1))  # each met lane whole
        return found


def _lanes(n: int, count: int, fin: Optional[Callable[[_Seq], int]] = None) -> _Lanes:
    """``count`` lanes of ``n`` bits each."""
    unit = sum(1 << s for s in range(0, n * count, n))
    return _Lanes(unit, (unit << n - 1) - unit, unit << n - 1, n, fin)


def _ranked_lanes(sig: Signature, rankings: Sequence[Ranking]) -> tuple[_Lanes, list[int], list[int]]:
    """The lanes of ``rankings``, a word per stratum index r, whose lane i holds
    stratum r of ``rankings[i]`` cut to the signature so as not to spill, and
    by alpha's mask the K*alpha word: in each lane, alpha's least part."""
    n, full = sig.num_states, (1 << sig.num_states) - 1
    columns = zip_longest(*(ranking.strata for ranking in rankings), fillvalue=0)
    strata = [sum((m & full) << i * n for i, m in enumerate(column)) for column in columns]
    ln = _lanes(n, len(rankings))
    return ln, strata, [ln.least(strata, m * ln.unit) for m in range(1 << n)]


def _lane_route(sig: Signature, assign: RankingAssignment) -> Optional[tuple]:
    """``_ranked_lanes`` of every non-empty kappa; None at the first ranking
    that grades other states than the signature's."""
    full = (1 << sig.num_states) - 1
    rankings = list(takewhile(lambda r: r._graded == full, map(assign, state_sets(sig, False))))
    return _ranked_lanes(sig, rankings) if len(rankings) == full else None


def _lane_violations(
    sig: Signature, kappas: _Obs, hits: _Hits, ts: Optional[TransitionSystem] = None, acts: tuple = ()
) -> list[Violation]:
    """A violation of its postulate per broken lane of each hit, lane i for
    ``kappas[i]`` (on ``ts`` after ``acts``): kappa by kappa, each in the order of the hits."""
    n, full = sig.num_states, (1 << sig.num_states) - 1
    found = []
    for name, bad, obs, lhs, rhs in hits:
        while bad:
            s = (bad & -bad).bit_length() - n  # the lane's shift
            bad &= bad - 1
            inst = Instance(sig, ts, kappas[s // n], acts, tuple(map(_members, obs)))
            found.append((s, name, inst, _members(lhs >> s & full), _members(rhs >> s & full)))
    found.sort(key=itemgetter(0))
    return [Violation(*vio) for _, *vio in found]


# ---------------------------------------------------------------------------
# Characterization of one-step combined change.


def check_I1_I2(
    op: CombinedOperator, assign: RankingAssignment, ts: TransitionSystem
) -> SuiteReport:
    """Compare a one-step operator against the two defining identities.

    For every (belief state, action, observation): when the observation is
    reachable the operator must equal revise-by-preimage then update, and
    otherwise it must equal plain update.  That side is computed on masks;
    ``op`` is called once per instance, even when it is bevo's own.
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


def _i1i2_hits(ln: _Lanes, strata: Sequence[int], words: Sequence[int], succ: Sequence[int]) -> _Hits:
    """``check_I1_I2`` of bevo's own ``combined_change`` for every kappa at once.
    For a reachable alpha it keeps alpha's least part under the strata's images,
    and I1 wants the image of ``words[pre]``, K*pre for alpha's preimage pre.
    It takes an unreachable alpha to kappa's image, as I2 wants."""
    def image(x: int) -> int:  # in each lane, the successors of x's states
        return reduce(or_, ((x >> s & ln.unit) << t for s, t in enumerate(succ)), 0)

    shifted, reach = [image(stratum) for stratum in strata], _mask(succ)
    moved = image(sum(k << (k - 1) * ln.width for k in range(1, 1 << ln.width)))
    hits = []
    for amask in range(1 << ln.width):
        pid, got, want = "I2", moved, moved
        if reach & amask:
            pre = sum(1 << s for s, t in enumerate(succ) if amask >> t & 1)
            pid, got = "I1", ln.least(shifted, amask * ln.unit)
            want = image(words[pre])
        hits.append((pid, ln.nonempty(got ^ want), (amask,), got, want))
    return hits


def run_i1i2_suite(
    fluents: Optional[int] = None,
    assign: RankingAssignment | None = None,
    samples: Optional[int] = None,
    seed: int = 0,
) -> SuiteReport:
    """Check that one-step combined change matches evolution's identities.

    The operator under test is ``combined_change`` built from the same
    ranking assignment, over every exhaustive system (or a seeded sample).
    Under bevo's own operator (both names read now, as a tracer wraps both
    alike) and ``_lane_route``, ``_i1i2_hits`` checks every kappa at once.
    """
    sig, assign, samples = _suite_scope("i1i2", fluents, samples, assign)
    if samples is None:
        systems: Iterator[TransitionSystem] = single_action_systems(sig)
    else:
        rng = random.Random(seed)
        systems = (_random_system(rng, sig) for _ in range(samples))
    scope = _scope(sig, samples, seed, "systems=all")
    ranked = _lane_route(sig, assign) if combined_change is revision.combined_change else None
    if ranked is not None:
        kappas = state_sets(sig, include_empty=False)
        # One system's blocks are kept, so noop's, the same in every system, comes once.
        hits = lru_cache(len(sig.actions))(partial(_i1i2_hits, *ranked))
        blocks = list(product(systems, sig.actions))
        found: list[Violation] = []
        for ts, a in blocks:
            found += _lane_violations(sig, kappas, hits(ts.successor_map(a)), ts, (a,))
        return SuiteReport("i1i2", scope, len(blocks) * len(kappas) << sig.num_states, tuple(found))
    reports = [
        check_I1_I2(partial(combined_change, ts=ts, assign=assign), assign, ts)
        for ts in systems
    ]
    vios = tuple(v for r in reports for v in r.violations)
    return SuiteReport("i1i2", scope, sum(r.instances for r in reports), vios)


# ---------------------------------------------------------------------------
# Set-level revision laws.


def check_agm(assign: RankingAssignment, sig: Signature) -> SuiteReport:
    """Verify the five set-level revision laws for every pair over ``sig``.

    Laws: (i) the result stays inside the observation; (ii) a compatible
    observation just intersects; (iii) only the empty observation gives an
    empty result; (iv) and (v) relate revision by an intersection to
    intersecting the revision, quantifying over a second observation.
    Each K*alpha, for every non-empty kappa, is one lane word, built from
    one ``revise`` call per pair.
    """
    n, size = sig.num_states, 1 << sig.num_states
    sets = state_sets(sig)
    # Revised kappa-major, as the assignment is asked; a stray state raises.
    words = [0] * size
    for s, kappa in zip(range(0, n * size, n), sets[1:]):
        for amask, alpha in enumerate(sets):
            words[amask] |= _state_mask(revise(kappa, alpha, assign), n) << s
    return _agm_report(sig, words)


def _agm_report(sig: Signature, words: Sequence[int]) -> SuiteReport:
    """The five laws on the K*alpha words, by alpha.  A beta with K*alpha &
    beta = K*(alpha & beta) in every lane breaks neither (iv) nor (v)."""
    n, size = sig.num_states, 1 << sig.num_states
    ln = _lanes(n, size - 1)
    kword = sum(kmask << (kmask - 1) * n for kmask in range(1, size))  # each kappa in its lane
    spread = [m * ln.unit for m in range(size)]  # each mask in every lane
    nonempty = ln.nonempty

    def hits() -> _Hits:
        for amask, ra in enumerate(words):
            alpha = spread[amask]
            met = kword & alpha
            yield "AGM-i", nonempty(ra & ~alpha), (amask,), ra, alpha
            yield "AGM-ii", nonempty(met) & nonempty(ra ^ met), (amask,), ra, met
            yield "AGM-iii", ln.high & ~nonempty(ra) if amask else nonempty(ra), (amask,), ra, alpha
            for bmask in range(1, size):
                x, y = ra & spread[bmask], words[amask & bmask]
                if x != y:
                    if bad := nonempty(x & ~y):
                        yield "AGM-iv", bad, (amask, bmask), x, y
                    if bad := nonempty(x) & nonempty(y & ~x):
                        yield "AGM-v", bad, (amask, bmask), y, x

    vios = _lane_violations(sig, state_sets(sig, include_empty=False), hits())
    return SuiteReport("agm", _scope(sig, None, 0, "pairs"), (size - 1) * size, tuple(vios))


def run_agm_suite(
    fluents: Optional[int] = None, assign: RankingAssignment | None = None
) -> SuiteReport:
    """``check_agm`` over a scope.  Under bevo's own ``revise`` (both names
    read now, as a tracer wraps both alike) and ``_lane_route``, each K*alpha
    word is alpha's least part for every kappa at once."""
    sig, assign, _ = _suite_scope("agm", fluents, None, assign)
    ranked = _lane_route(sig, assign) if revise is revision.revise else None
    return check_agm(assign, sig) if ranked is None else _agm_report(sig, ranked[2])


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
# recency, as a lane word.  Each law takes its name, the lanes, one (prefix,
# alpha) and the betas it quantifies over; only L7's complements may be empty.
# A ``suffix`` O' turns starred laws into L4, L5 and L6, which evolution breaks.


def _l2(name: str, ln: _Lanes, prefix: _Seq, alpha: int, betas: _Seq) -> _Hits:
    """The final observation always holds afterwards."""
    got, rhs = ln.fin(prefix + (alpha,)), alpha * ln.unit
    yield name, ln.nonempty(got & ~rhs), prefix + (alpha,), got, rhs


def _l3(name: str, ln: _Lanes, prefix: _Seq, alpha: int, betas: _Seq) -> _Hits:
    """Observing an already believed alpha adds no new belief beta."""
    f_o = ln.fin(prefix)
    held = ln.high & ~ln.nonempty(f_o & ~(alpha * ln.unit))
    # Only where f_o is not inside f_oa can a beta (f_oa itself) break it.
    f_oa = ln.fin(prefix + (alpha,)) if held else f_o
    held &= ln.nonempty(f_o & ~f_oa)
    for beta in betas if held else ():
        rhs = beta * ln.unit
        bad = held & ln.nonempty(f_o & ~rhs) & ~ln.nonempty(f_oa & ~rhs)
        yield name, bad, prefix + (alpha, beta), f_o, rhs


def _l4(name: str, ln: _Lanes, prefix: _Seq, alpha: int, betas: _Seq, suffix: _Seq = ()) -> _Hits:
    """Appending an observation that is already believed is a no-op."""
    held = ln.high & ~ln.nonempty(ln.fin(prefix) & ~(alpha * ln.unit))
    if held:
        lhs, rhs = ln.fin(prefix + suffix), ln.fin(prefix + (alpha,) + suffix)
        yield name, held & ln.nonempty(lhs ^ rhs), prefix + (alpha,) + suffix, lhs, rhs


def _l5(name: str, ln: _Lanes, prefix: _Seq, alpha: int, betas: _Seq, suffix: _Seq = ()) -> _Hits:
    """A weaker observation right before a stronger one is superfluous."""
    for beta in betas:
        lhs, rhs = ln.fin(prefix + (alpha, beta) + suffix), ln.fin(prefix + (beta,) + suffix)
        yield name, ln.nonempty(lhs ^ rhs), prefix + (alpha, beta) + suffix, lhs, rhs


def _l6(name: str, ln: _Lanes, prefix: _Seq, alpha: int, betas: _Seq, suffix: _Seq = ()) -> _Hits:
    """Refining by a live beta equals refining by its meet with alpha."""
    live = ln.fin(prefix + (alpha,))
    for beta in betas:
        held = ln.nonempty(live & beta * ln.unit)
        if held:
            lhs = ln.fin(prefix + (alpha, beta) + suffix)
            rhs = ln.fin(prefix + (alpha, alpha & beta) + suffix)
            yield name, held & ln.nonempty(lhs ^ rhs), prefix + (alpha, beta) + suffix, lhs, rhs


def _l7(name: str, ln: _Lanes, prefix: _Seq, alpha: int, betas: _Seq) -> _Hits:
    """Observing alpha's complement just before alpha loses no state alpha alone keeps."""
    lhs = ln.fin(prefix + (alpha,))
    for complement in betas:
        rhs = ln.fin(prefix + (complement, alpha))
        yield name, ln.nonempty(lhs & ~rhs), prefix + (alpha,), lhs, rhs


class _Law(NamedTuple):
    name: str
    check: Callable[..., _Hits]
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


def _betas(law: _Law, alpha: int, pool: Sequence[int], full: int) -> Sequence[int]:
    """The beta masks ``law`` quantifies over for ``alpha``, drawn from ``pool``."""
    if law.betas is None:
        return ()
    if law.betas == "complement":
        return (full ^ alpha,)
    if law.betas == "below":
        return tuple(beta for beta in pool if beta | alpha == alpha)
    return pool


def _lehmann_lanes(sig: Signature, assign: RankingAssignment, kappas: _Obs) -> _Lanes:
    """Lane words, lane i for ``kappas[i]``.  Under bevo's own ``iterated_revise``
    (both names read now; a tracer wraps both alike) a word comes from the
    sequence's cores, which do not depend on kappa.  Else the operator runs
    for every kappa; ``_state_mask`` stops a stray state spilling over.  Only
    a sweep, with several lanes, asks again: it caches words by sequence and
    by cores."""
    n = sig.num_states
    shifts = range(0, n * len(kappas), n)
    memo = cache if len(kappas) > 1 else lambda f: f
    if iterated_revise is evolution.iterated_revise:
        ranked = list(zip(shifts, map(assign, kappas)))
        word = memo(lambda cores: sum(_iterated_final(cores, r) << s for s, r in ranked))
        def fin(seq: _Seq) -> int:
            return word(tuple(_revision_cores(seq, sig, recency).values()))
    else:
        def fin(seq: _Seq) -> int:
            obs, word = tuple(map(_members, seq)), 0
            for s, kappa in zip(shifts, kappas):
                word |= _state_mask(iterated_revise(kappa, obs, sig=sig, assign=assign), n) << s
            return word

    return _lanes(n, len(kappas), memo(fin))


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
    ``samples`` single draws.  Each beta value counts as one instance.  The
    sweep checks each (prefix, alpha) for every kappa at once, one lane
    each, and lists a law's violations by kappa, prefix, alpha and beta.
    """
    sig, assign, samples = _suite_scope("lehmann", fluents, samples, assign)
    _require_length("max_len", max_len)
    full = (1 << sig.num_states) - 1
    vios: list[Violation] = []
    count = 0
    if samples is None:
        if max_len > 3:
            raise ValueError("the exhaustive sequence sweep is capped at length 3")
        kappas = state_sets(sig, include_empty=False)
        lanes = _lehmann_lanes(sig, assign, kappas)
        nonempty = range(1, full + 1)
        for law in _LEHMANN:
            # Prefixes as long as leave room for what the law appends.
            lengths = range(law.min_prefix, max_len - law.appended + 1)
            prefixes = [seq for ln in lengths for seq in product(nonempty, repeat=ln)]
            pool = range(full + 1) if law.betas == "every" else nonempty
            alphas = [(alpha, _betas(law, alpha, pool, full)) for alpha in nonempty]
            count += len(kappas) * len(prefixes) * sum(len(betas) or 1 for _, betas in alphas)
            checks = (law.check(law.name, lanes, p, *alpha) for p in prefixes for alpha in alphas)
            vios += _lane_violations(sig, kappas, chain.from_iterable(checks))
    else:
        rng = random.Random(seed)
        draw = partial(rng.randrange, 1, full + 1)
        # Draw kappa, alpha, beta, the law, then a prefix one shorter than
        # the sweep's longest for the laws that need one, which get (beta,)
        # if it comes out empty.  L5* needs beta below alpha.  Only the laws
        # whose shortest sequence fits in max_len are drawn, as in the sweep.
        laws = [law for law in _LEHMANN if law.min_prefix + law.appended <= max_len]
        for _ in range(samples):
            kappa, alpha, beta = draw(), draw(), draw()
            law = laws[rng.randrange(len(laws))]
            longest = max_len - law.appended - law.min_prefix
            prefix = tuple(draw() for _ in range(rng.randint(0, longest))) or (beta,) * law.min_prefix
            if law.betas == "below":
                alpha, beta = alpha | beta, alpha & beta or alpha
            kappas, betas = (_members(kappa),), _betas(law, alpha, (beta,), full)
            count += len(betas) or 1
            hits = law.check(law.name, _lehmann_lanes(sig, assign, kappas), prefix, alpha, betas)
            vios += _lane_violations(sig, kappas, hits)
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
        sig = self.signature
        lines = [f"after {label}: {format_state_set(sig, val)}" for label, val in self.values.items()]
        lines += ["failed: " + " ".join(self.failed), "held: " + " ".join(self.held)]
        return "\n".join(lines)

    def to_data(self) -> dict:
        values = {label: states_data(self.signature, val) for label, val in self.values.items()}
        return {"values": values, "failed": list(self.failed), "held": list(self.held)}


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
    s1, s2, s3 = 0b001, 0b010, 0b100  # the masks of states 0, 1 and 2
    kappa, o, alpha, beta, o_prime, gamma = s1, s3, s2 | s3, s3, s1 | s2, s1 | s3

    # The Hamming assignment must realize the single revisions the example
    # is built from; anything else would invalidate the whole report.
    for a, want in {o: o, o_prime: kappa, s2: s2, kappa: kappa}.items():
        a, want, got = _members(a), _members(want), revise(_members(kappa), _members(a), assign)
        if got != want:
            raise RuntimeError(f"ranking fails to realize {_members(a)} -> {want}, got {got}")

    lanes = _lehmann_lanes(sig, assign, (_members(kappa),))
    sequences = {
        "O": (o,), "O,O'": (o, o_prime), "O,a,O'": (o, alpha, o_prime), "O,a": (o, alpha),
        "O,a,g,O'": (o, alpha, gamma, o_prime), "O,a,a&g,O'": (o, alpha, gamma & alpha, o_prime),
    }
    values = {label: _members(lanes.fin(seq)) for label, seq in sequences.items()}

    # The unstarred L4, L5 and L6 first, then the six laws as swept.
    verdicts = [(law.name[:-1], law, {"suffix": (o_prime,)}) for law in _LEHMANN if "*" in law.name]
    verdicts += [(law.name, law, {}) for law in _LEHMANN]
    failed, held = [], []
    for name, law, suffix in verdicts:
        pool = (gamma,) if law.name == "L6*" else (beta,)
        betas = _betas(law, alpha, pool, (1 << sig.num_states) - 1)
        broken = any(bad for _, bad, *_ in law.check(name, lanes, (o,), alpha, betas, **suffix))
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
