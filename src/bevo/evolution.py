"""Belief evolution: interleaved action updates and observation revisions.

A world view pairs an action trajectory with an equally long observation
trajectory: after performing action i the agent observes observation i.  The
view is consistent when some non-empty initial belief state progresses
through the actions while satisfying every observation; evolving then means
revising the initial belief state by the intersection of the observation
pre-images and updating forward.

Inconsistent histories are repaired by discarding observations.  A weakening
replaces chosen observations with the trivially true one; the repair
candidates are the consistent weakenings that discard as little as possible,
and a reliability ordering over the observations picks the final repairs.
By default more recent observations are considered more reliable, which
makes the repair unique.

One forward walk gives each non-trivial observation a mask of the initial
states whose run satisfies it, and a set of kept positions is a mask too,
bit i for position i: it is consistent exactly when the AND of its
observations' masks is non-zero.  ``_select`` is the one home of the repair
choice, read by ``repairs``, ``minimal_repair_candidates`` and
``_revision_cores``, which gives ``iterated_revise`` and the Lehmann sweep
their cores without building a transition system.  When the reliability
levels are pairwise distinct (recency, primacy, distinct weights) it finds
the preferred repair greedily, most reliable first, in one AND per
observation.  Orders with ties walk the levels the same way: each kept set
so far splits the initial states that satisfy it by the level's observations
they satisfy, and keeps the maximal sets they witness, in at most 2jN ANDs
for a level of j positions and N states.  Any number of observations can be
repaired.

``_revised_plan`` is the one revision step: it ranks kappa once and revises
each repair's core on masks.  ``evolve`` updates each revised start forward;
``evolve_skeptical`` updates their union forward once.

All operations here require a deterministic transition system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Sequence

from .kernel import (
    NULL_ACTION,
    Signature,
    StateSet,
    TransitionSystem,
    _indicator_mask,
    _mask,
    _members,
    _require_deterministic,
    universe,
)
from .revision import Ranking, RankingAssignment, _revised, dalal_assignment, revise
from .update import ActionTrajectory, update, update_seq

ObservationTrajectory = tuple[StateSet, ...]
BeliefTrajectory = tuple[StateSet, ...]

# Maps a trajectory length n to one reliability level per position; lower
# levels are more reliable.
ReliabilityFunction = Callable[[int], tuple[int, ...]]


@dataclass(frozen=True)
class WorldView:
    """An action trajectory paired position-by-position with observations."""

    actions: tuple[str, ...]
    observations: ObservationTrajectory

    def __post_init__(self) -> None:
        if len(self.actions) != len(self.observations):
            raise ValueError(
                f"{len(self.actions)} actions but {len(self.observations)} observations"
            )
        if not self.actions:
            raise ValueError("a world view needs at least one step")

    def __len__(self) -> int:
        return len(self.actions)


def recency(n: int) -> tuple[int, ...]:
    """Most recent observation most reliable; the package default."""
    return tuple(-(i + 1) for i in range(n))


def constant(n: int) -> tuple[int, ...]:
    """All observations equally reliable."""
    return (0,) * n


def fixed_weights(weights: Iterable[int]) -> ReliabilityFunction:
    """Explicit per-position reliability levels; lower means more reliable."""
    fixed = tuple(int(w) for w in weights)

    def fn(n: int) -> tuple[int, ...]:
        if n != len(fixed):
            raise ValueError(
                f"reliability weights cover {len(fixed)} positions, trajectory has {n}"
            )
        return fixed

    return fn


def _runs(actions: ActionTrajectory, ts: TransitionSystem) -> Iterator[Sequence[int]]:
    """After each action in turn, the state reached from every initial state."""
    _require_deterministic(ts)
    run: Sequence[int] = range(ts.signature.num_states)
    for a in actions:
        succ = ts._least_successors(a)
        run = [succ[p] for p in run]
        yield run


def preimage(alpha: StateSet, actions: ActionTrajectory, ts: TransitionSystem) -> StateSet:
    """States whose run through the action trajectory ends inside ``alpha``."""
    alpha = frozenset(alpha)
    # Keep the last run; with no actions every state stays where it is.
    run: Sequence[int] = range(ts.signature.num_states)
    for run in _runs(actions, ts):
        pass
    return frozenset(s for s, p in enumerate(run) if p in alpha)


def _preimage_masks(view: WorldView, ts: TransitionSystem) -> dict[int, int]:
    """One bitmask of initial states per repairable position.

    Bit s of ``masks[i]`` is set when the run from initial state s satisfies
    observation i; trivially true observations are left out.  A set of
    positions is consistent exactly when the AND of their masks is non-zero.
    """
    full = universe(ts.signature)
    masks = {}
    for i, (run, obs) in enumerate(zip(_runs(view.actions, ts), view.observations)):
        if obs != full:
            masks[i] = _indicator_mask(bytes(map(obs.__contains__, run)))
    return masks


def _meet(masks: Iterable[int], ts: TransitionSystem) -> int:
    """The AND of ``masks``; every initial state when there are none."""
    core = (1 << ts.signature.num_states) - 1
    for mask in masks:
        core &= mask
    return core


def consistent(view: WorldView, ts: TransitionSystem) -> bool:
    """Whether some non-empty initial belief state satisfies the whole view."""
    return bool(_meet(_preimage_masks(view, ts).values(), ts))


def _checked_assignment(
    kappa: StateSet, ts: TransitionSystem, assign: RankingAssignment | None
) -> RankingAssignment:
    """The assignment to evolve ``kappa`` under, once the inputs are checked."""
    _require_deterministic(ts)
    if not kappa:
        raise ValueError("cannot evolve an empty belief state")
    return assign if assign is not None else dalal_assignment(ts.signature)


def _forward(start: StateSet, view: WorldView, ts: TransitionSystem) -> BeliefTrajectory:
    """``start`` followed by its updates through the view's actions."""
    trajectory = [start]
    for a in view.actions:
        trajectory.append(update(trajectory[-1], a, ts))
    return tuple(trajectory)


def _select(masks: dict[int, int], levels: Sequence[int], core: int) -> dict[int, int]:
    """The kept sets of the preferred repairs, bit i for position i, each
    mapped to its core: the states of ``core`` that satisfy all of it.

    When the levels of ``masks`` are pairwise distinct the order is total
    and the one preferred repair is built greedily: visiting the positions
    from most to least reliable, keep each one that leaves the core
    non-empty.  That set is maximal, and any other differs first at a
    position it dropped, so it beats every other candidate.

    Otherwise the levels are walked from most to least reliable.  At each
    level, every kept set built so far splits its core by the level's
    positions each state satisfies; the maximal keys are its extensions,
    each with its part as the new core.  A kept set survives exactly when,
    at every level, it keeps a maximal consistent part of that level given
    the more reliable ones: it is a maximal candidate that no other beats at
    the first level where the two differ.  The cores stay disjoint and
    non-empty, so for N states a level of j positions costs at most 2jN ANDs.
    """
    tiers = set(map(levels.__getitem__, masks))
    if len(tiers) == len(masks):
        bits = 0
        for i in sorted(masks, key=levels.__getitem__):
            if core & masks[i]:
                core &= masks[i]
                bits |= 1 << i
        return {bits: core}
    kept = {0: core}
    for level in sorted(tiers):
        at_level = [i for i in masks if levels[i] == level]
        grown = {}
        for bits, states in kept.items():
            parts = {bits: states}
            for i in at_level:
                split = {}
                for key, part in parts.items():
                    inside = part & masks[i]
                    for k, p in ((key | 1 << i, inside), (key, part ^ inside)):
                        if p:
                            split[k] = p
                parts = split
            maximal: list[int] = []
            # Decreasing size: a key is maximal unless an accepted one contains it.
            for key in sorted(parts, key=int.bit_count, reverse=True):
                if not any(key & a == key for a in maximal):
                    maximal.append(key)
                    grown[key] = parts[key]
        kept = grown
    return kept


def _ordered(
    observations: ObservationTrajectory, kept: dict[int, int], full: StateSet
) -> dict[ObservationTrajectory, int]:
    """Each of ``_select``'s sets as a weakening, its other positions
    discarded to ``full``, mapped to its core, in the order ``repairs``
    lists them."""
    views = {
        tuple([frozenset(o) if bits >> i & 1 else full for i, o in enumerate(observations)]): core
        for bits, core in kept.items()
    }
    if len(views) > 1:
        views = dict(sorted(views.items(), key=lambda view: [sorted(o) for o in view[0]]))
    return views


def _preferred_views(
    view: WorldView, ts: TransitionSystem, levels: Sequence[int]
) -> tuple[ObservationTrajectory, ...]:
    """The weakenings that keep each of ``_select``'s sets, sorted."""
    kept = _select(_preimage_masks(view, ts), levels, _meet((), ts))
    return tuple(_ordered(view.observations, kept, universe(ts.signature)))


def minimal_repair_candidates(
    view: WorldView, ts: TransitionSystem
) -> tuple[ObservationTrajectory, ...]:
    """Consistent weakenings that discard an inclusion-minimal set of positions.

    A weakening qualifies when it is consistent and re-introducing any one of
    its discarded observations would break consistency.  Discarding
    everything is always consistent, so the result is never empty.  These
    are the preferred repairs of one reliability level.
    """
    return _preferred_views(view, ts, constant(len(view)))


def repairs(
    view: WorldView,
    ts: TransitionSystem,
    r: ReliabilityFunction = recency,
) -> tuple[ObservationTrajectory, ...]:
    """The repair candidates that are minimal in the reliability ordering."""
    full = universe(ts.signature)
    levels = r(len(view))
    ranks = [levels[i] for i, o in enumerate(view.observations) if o != full]
    if len(ranks) > 1 and len(set(ranks)) == 1:
        # One level: every candidate is preferred.
        return minimal_repair_candidates(view, ts)
    return _preferred_views(view, ts, levels)


@dataclass(frozen=True)
class EvolutionResult:
    """All evolutions of a belief state through a (possibly repaired) view.

    ``repaired_views[i]`` is the observation trajectory that produced
    ``trajectories[i]``.  When the original view was consistent there is a
    single trajectory and the single repaired view is the original.
    """

    was_consistent: bool
    repaired_views: tuple[ObservationTrajectory, ...]
    trajectories: tuple[BeliefTrajectory, ...]


# The part of evolving through a view that does not depend on kappa: whether
# the view was consistent, the repaired views (the view itself when it was)
# and, for each, the mask of the meet of the preimages it keeps, which kappa
# is revised by.
_Plan = tuple[bool, tuple[ObservationTrajectory, ...], tuple[int, ...]]


def _plan(view: WorldView, ts: TransitionSystem, r: ReliabilityFunction) -> _Plan:
    """The preimages, the consistency test and, if needed, the repairs."""
    masks = _preimage_masks(view, ts)
    core = _meet(masks.values(), ts)
    if core:
        return True, (view.observations,), (core,)
    fixed = repairs(view, ts, r)
    full = universe(ts.signature)
    cores = []
    for obs in fixed:
        # A repair discards an observation by weakening it to ``full``.
        cores.append(_meet((m for i, m in masks.items() if obs[i] != full), ts))
    return False, fixed, tuple(cores)


def _revised_plan(
    kappa: StateSet,
    view: WorldView,
    ts: TransitionSystem,
    assign: RankingAssignment | None,
    r: ReliabilityFunction,
) -> _Plan:
    """``_plan`` with each core replaced by its revision under ``kappa``'s
    one ranking: the mask of that repair's initial belief state."""
    assign = _checked_assignment(kappa, ts, assign)
    was_consistent, fixed, cores = _plan(view, ts, r)
    ranking = assign(kappa)
    return was_consistent, fixed, tuple([_revised(core, ranking) for core in cores])


def evolve(
    kappa: StateSet,
    view: WorldView,
    ts: TransitionSystem,
    assign: RankingAssignment | None = None,
    r: ReliabilityFunction = recency,
) -> EvolutionResult:
    """Evolve a belief state through a world view, repairing if necessary.

    Consistent views give exactly one trajectory.  Inconsistent views give
    one trajectory per repair; with an injective reliability function (such
    as the default recency ordering) there is exactly one repair.
    """
    was_consistent, fixed, starts = _revised_plan(kappa, view, ts, assign, r)
    trajectories = tuple([_forward(_members(start), view, ts) for start in starts])
    return EvolutionResult(was_consistent, fixed, trajectories)


def evolve_skeptical(
    kappa: StateSet,
    view: WorldView,
    ts: TransitionSystem,
    assign: RankingAssignment | None = None,
    r: ReliabilityFunction = recency,
) -> BeliefTrajectory:
    """Union the initial states of all repairs, then update forward once."""
    starts = _revised_plan(kappa, view, ts, assign, r)[2]
    return _forward(_members(reduce(or_, starts)), view, ts)


def padded_view(
    actions: ActionTrajectory, alpha: StateSet, sig: Signature
) -> WorldView:
    """Run the actions with nothing observed until a final observation.

    An empty action trajectory becomes a single noop step, which leaves the
    belief state untouched.
    """
    acts = tuple(actions) or (NULL_ACTION,)
    full = universe(sig)
    obs = (full,) * (len(acts) - 1) + (frozenset(alpha),)
    return WorldView(acts, obs)


def final_state_shortcut(
    kappa: StateSet,
    actions: ActionTrajectory,
    alpha: StateSet,
    ts: TransitionSystem,
    assign: RankingAssignment | None = None,
) -> StateSet:
    """Final belief state without computing the whole trajectory.

    When the final observation is compatible with the predicted outcomes
    (``alpha`` meets the updated belief state), evolving equals updating
    first and revising once at the end, so the intermediate revision of the
    initial state can be skipped.
    """
    assign = _checked_assignment(kappa, ts, assign)
    alpha = frozenset(alpha)
    progressed = update_seq(kappa, actions, ts)
    if not alpha & progressed:
        raise ValueError(
            "shortcut precondition failed: the observation does not meet "
            "the updated belief state"
        )
    return revise(progressed, alpha, assign)


def _revision_cores(
    masks: Sequence[int], sig: Signature, r: ReliabilityFunction
) -> dict[int, int]:
    """``_select``'s kept sets, bit i for observation i, each mapped to the
    core ``iterated_revise`` revises kappa by; ``masks`` are the observations
    on masks.  None depends on kappa, and a meet that is not empty keeps all."""
    everything = (1 << sig.num_states) - 1
    kept = {i: m for i, m in enumerate(masks) if m != everything}
    core = reduce(and_, kept.values(), everything)
    return {(1 << len(masks)) - 1: core} if core else _select(kept, r(len(masks)), everything)


def _iterated_final(cores: Iterable[int], ranking: Ranking) -> int:
    """The mask of the one state ``ranking`` revises to by each of ``cores``,
    taken in order so that an unranked state is named as evolution names it."""
    finals = {_revised(core, ranking) for core in cores}
    if len(finals) != 1:
        raise ValueError(
            "iterated revision is ambiguous under this reliability function; "
            "use evolve for the full set of outcomes"
        )
    return finals.pop()


def iterated_revise(
    kappa: StateSet,
    observations: Sequence[StateSet],
    sig: Signature,
    assign: RankingAssignment | None = None,
    r: ReliabilityFunction = recency,
) -> StateSet:
    """Revise by a sequence of observations with no world change.

    The result is the final belief state of evolution over an identity
    transition system with one noop step per observation.  For two
    observations beta then alpha this equals revising by their intersection
    when that is non-empty, and revising by alpha alone otherwise.

    On that system each observation is its own preimage and every update is
    the identity, so each evolution revises ``kappa`` once, by the core of
    the observations its repair keeps.  Those cores are computed directly,
    with no transition system and no ``evolve``.
    """
    obs = tuple(frozenset(o) for o in observations)
    if not obs:
        raise ValueError("need at least one observation")
    if not kappa:
        raise ValueError("cannot evolve an empty belief state")
    if NULL_ACTION not in sig.actions:
        raise ValueError(f"unknown action {NULL_ACTION!r}")
    if assign is None:
        assign = dalal_assignment(sig)
    # The one encoding: states outside the signature constrain nothing, but
    # tied repairs sort by the observations as given, as ``repairs`` sorts.
    full = universe(sig)
    kept = _revision_cores([_mask(o & full) for o in obs], sig, r)
    cores = _ordered(obs, kept, full) if len(kept) > 1 else kept
    return _members(_iterated_final(cores.values(), assign(kappa)))
