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

Each non-trivial observation is held as a bitmask of the initial states
whose run satisfies it, so a set of kept observations is consistent exactly
when the AND of their masks is non-zero.  When the reliability levels of
those observations are pairwise distinct (recency, primacy, distinct
weights) the preferred repair is found greedily, most reliable first, in one
AND per observation.  Other orders sweep the lattice of kept sets, which is
capped at ``MAX_REPAIR_POSITIONS`` non-trivial observations.

All operations here require a deterministic transition system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .kernel import (
    NULL_ACTION,
    Signature,
    StateSet,
    TransitionSystem,
    complete_transitions,
    universe,
)
from .revision import RankingAssignment, dalal_assignment, revise
from .update import ActionTrajectory, update, update_seq

ObservationTrajectory = tuple[StateSet, ...]
BeliefTrajectory = tuple[StateSet, ...]

# Maps a trajectory length n to one reliability level per position; lower
# levels are more reliable.
ReliabilityFunction = Callable[[int], tuple[int, ...]]

# Above this many repairable observations the weakening lattice (2^n) is not
# worth exploring.  Only orders with tied levels sweep it; injective orders
# repair greedily at any length.
MAX_REPAIR_POSITIONS = 20


class InconsistentView(ValueError):
    """Raised when an operation requires a consistent world view."""


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


def _require_deterministic(ts: TransitionSystem) -> None:
    if not ts.deterministic:
        raise ValueError(
            "this operation requires a deterministic transition system"
        )


def preimage(alpha: StateSet, actions: ActionTrajectory, ts: TransitionSystem) -> StateSet:
    """States whose run through the action trajectory ends inside ``alpha``."""
    _require_deterministic(ts)
    cur = frozenset(alpha)
    for a in reversed(tuple(actions)):
        succ = ts.successor_map(a)
        cur = frozenset(s for s in range(ts.signature.num_states) if succ[s] in cur)
    return cur


def _preimage_masks(view: WorldView, ts: TransitionSystem) -> dict[int, int]:
    """One bitmask of initial states per repairable position.

    Bit s of ``masks[i]`` is set when the run from initial state s satisfies
    observation i; trivially true observations are left out.  A set of
    positions is consistent exactly when the AND of their masks is non-zero.
    """
    _require_deterministic(ts)
    full = universe(ts.signature)
    run: Sequence[int] = range(ts.signature.num_states)
    masks = {}
    for i, (a, obs) in enumerate(zip(view.actions, view.observations)):
        succ = ts.successor_map(a)
        run = [succ[p] for p in run]
        if obs != full:
            mask = 0
            for s, p in enumerate(run):
                if p in obs:
                    mask |= 1 << s
            masks[i] = mask
    return masks


def _meet(masks: Iterable[int], ts: TransitionSystem) -> int:
    """The AND of ``masks``; every initial state when there are none."""
    core = (1 << ts.signature.num_states) - 1
    for mask in masks:
        core &= mask
    return core


def _states(mask: int) -> StateSet:
    return frozenset(s for s in range(mask.bit_length()) if mask >> s & 1)


def consistent(view: WorldView, ts: TransitionSystem) -> bool:
    """Whether some non-empty initial belief state satisfies the whole view."""
    return bool(_meet(_preimage_masks(view, ts).values(), ts))


def _forward(
    kappa: StateSet,
    view: WorldView,
    ts: TransitionSystem,
    assign: RankingAssignment,
    core: StateSet,
) -> BeliefTrajectory:
    trajectory = [revise(kappa, core, assign)]
    for a in view.actions:
        trajectory.append(update(trajectory[-1], a, ts))
    return tuple(trajectory)


def evolve_consistent(
    kappa: StateSet,
    view: WorldView,
    ts: TransitionSystem,
    assign: RankingAssignment | None = None,
) -> BeliefTrajectory:
    """Evolve through a view known to be consistent.

    The initial belief state is revised by the intersection of the
    observation pre-images; the rest of the trajectory is forward update.
    Every entry i >= 1 of the result satisfies observation i by construction.
    """
    _require_deterministic(ts)
    if not kappa:
        raise ValueError("cannot evolve an empty belief state")
    if assign is None:
        assign = dalal_assignment(ts.signature)
    core = _meet(_preimage_masks(view, ts).values(), ts)
    if not core:
        raise InconsistentView("world view is inconsistent; repair it first")
    return _forward(kappa, view, ts, assign, _states(core))


def weakenings(
    observations: ObservationTrajectory, sig: Signature
) -> Iterator[ObservationTrajectory]:
    """All distinct trajectories obtained by discarding some observations.

    Discarding replaces an observation with the full state set.  Positions
    already trivially true contribute nothing, so the count is 2^k with k
    the number of non-trivial positions.  Trajectories that discard fewer
    positions come first.
    """
    full = universe(sig)
    obs = tuple(frozenset(o) for o in observations)
    lattice = [i for i, o in enumerate(obs) if o != full]
    for k in range(len(lattice) + 1):
        for dropped in combinations(lattice, k):
            yield tuple(
                full if i in dropped else o for i, o in enumerate(obs)
            )


def _view_sort_key(observations: ObservationTrajectory):
    return tuple(tuple(sorted(o)) for o in observations)


def minimal_repair_candidates(
    view: WorldView, ts: TransitionSystem
) -> tuple[ObservationTrajectory, ...]:
    """Consistent weakenings that discard an inclusion-minimal set of positions.

    A weakening qualifies when it is consistent and re-introducing any one of
    its discarded observations would break consistency.  Discarding
    everything is always consistent, so the result is never empty.
    """
    _require_deterministic(ts)
    full = universe(ts.signature)
    obs = tuple(frozenset(o) for o in view.observations)
    lattice = [i for i, o in enumerate(obs) if o != full]
    if len(lattice) > MAX_REPAIR_POSITIONS:
        raise ValueError(
            f"{len(lattice)} repairable observations; "
            f"the repair search is capped at {MAX_REPAIR_POSITIONS}"
        )
    masks = _preimage_masks(view, ts)
    everything = _meet((), ts)
    accepted: list[int] = []  # kept sets, bit i for position i
    # Decreasing retained size: every consistent set met here is either
    # contained in an accepted maximal one or is itself maximal.
    for k in range(len(lattice), -1, -1):
        for kept in combinations(lattice, k):
            core = everything
            bits = 0
            for i in kept:
                core &= masks[i]
                bits |= 1 << i
            if core and not any(bits & a == bits for a in accepted):
                accepted.append(bits)
    out = [
        tuple(o if bits >> i & 1 else full for i, o in enumerate(obs))
        for bits in accepted
    ]
    out.sort(key=_view_sort_key)
    return tuple(out)


def _retained_positions(
    original: ObservationTrajectory, weakened: ObservationTrajectory, full: StateSet
) -> frozenset[int]:
    return frozenset(
        i for i, o in enumerate(original) if o != full and weakened[i] == o
    )


def _prefer(
    kept_a: frozenset[int], kept_b: frozenset[int], levels: Sequence[int], lattice: Sequence[int]
) -> bool:
    """Whether retaining ``kept_a`` beats ``kept_b`` in the reliability order.

    Scanning reliability levels from most to least reliable, the first level
    where the retained sets differ decides: the winner must retain a strict
    superset of the loser's observations at that level.
    """
    for lev in sorted({levels[i] for i in lattice}):
        at_level = {i for i in lattice if levels[i] == lev}
        a = kept_a & at_level
        b = kept_b & at_level
        if a != b:
            return b < a
    return False


def repairs(
    view: WorldView,
    ts: TransitionSystem,
    r: ReliabilityFunction = recency,
) -> tuple[ObservationTrajectory, ...]:
    """The repair candidates that are minimal in the reliability ordering.

    When the repairable positions have pairwise distinct levels the order is
    total and the one repair is built greedily: visiting the positions from
    most to least reliable, keep each one that leaves the kept set
    consistent.  That set is maximal, and any other differs first at a
    position it dropped, so it beats every other candidate.
    """
    full = universe(ts.signature)
    levels = r(len(view))
    lattice = [i for i, o in enumerate(view.observations) if o != full]
    if len({levels[i] for i in lattice}) == len(lattice):
        masks = _preimage_masks(view, ts)
        core = _meet((), ts)
        kept = set()
        for i in sorted(lattice, key=levels.__getitem__):
            if core & masks[i]:
                core &= masks[i]
                kept.add(i)
        return (
            tuple(
                frozenset(o) if i in kept else full
                for i, o in enumerate(view.observations)
            ),
        )
    candidates = minimal_repair_candidates(view, ts)
    kept_sets = [
        _retained_positions(view.observations, cand, full) for cand in candidates
    ]
    out = [
        cand
        for cand, kept in zip(candidates, kept_sets)
        if not any(
            _prefer(other, kept, levels, lattice)
            for other in kept_sets
            if other != kept
        )
    ]
    return tuple(out)


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
    _require_deterministic(ts)
    if not kappa:
        raise ValueError("cannot evolve an empty belief state")
    if assign is None:
        assign = dalal_assignment(ts.signature)
    masks = _preimage_masks(view, ts)
    core = _meet(masks.values(), ts)
    if core:
        trajectory = _forward(kappa, view, ts, assign, _states(core))
        return EvolutionResult(True, (view.observations,), (trajectory,))
    fixed = repairs(view, ts, r)
    full = universe(ts.signature)
    trajectories = tuple(
        _forward(
            kappa,
            view,
            ts,
            assign,
            _states(
                _meet(
                    (masks[i] for i in _retained_positions(view.observations, obs, full)),
                    ts,
                )
            ),
        )
        for obs in fixed
    )
    return EvolutionResult(False, fixed, trajectories)


def evolve_skeptical(
    kappa: StateSet,
    view: WorldView,
    ts: TransitionSystem,
    assign: RankingAssignment | None = None,
    r: ReliabilityFunction = recency,
) -> BeliefTrajectory:
    """Union the initial states of all repairs, then update forward once."""
    result = evolve(kappa, view, ts, assign, r)
    start: set[int] = set()
    for trajectory in result.trajectories:
        start |= trajectory[0]
    merged = [frozenset(start)]
    for a in view.actions:
        merged.append(update(merged[-1], a, ts))
    return tuple(merged)


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
    _require_deterministic(ts)
    if not kappa:
        raise ValueError("cannot evolve an empty belief state")
    if assign is None:
        assign = dalal_assignment(ts.signature)
    alpha = frozenset(alpha)
    progressed = update_seq(kappa, actions, ts)
    if not alpha & progressed:
        raise ValueError(
            "shortcut precondition failed: the observation does not meet "
            "the updated belief state"
        )
    return revise(progressed, alpha, assign)


@lru_cache(maxsize=64)
def _identity_system(sig: Signature) -> TransitionSystem:
    return complete_transitions(sig, ())


def iterated_revise(
    kappa: StateSet,
    observations: Sequence[StateSet],
    sig: Signature,
    assign: RankingAssignment | None = None,
    r: ReliabilityFunction = recency,
) -> StateSet:
    """Revise by a sequence of observations with no world change.

    Runs evolution over an identity transition system with one noop step per
    observation and returns the final belief state.  For two observations
    beta then alpha this equals revising by their intersection when that is
    non-empty, and revising by alpha alone otherwise.
    """
    obs = tuple(frozenset(o) for o in observations)
    if not obs:
        raise ValueError("need at least one observation")
    ts = _identity_system(sig)
    view = WorldView((NULL_ACTION,) * len(obs), obs)
    result = evolve(kappa, view, ts, assign, r)
    finals = {t[-1] for t in result.trajectories}
    if len(finals) != 1:
        raise ValueError(
            "iterated revision is ambiguous under this reliability function; "
            "use evolve for the full set of outcomes"
        )
    return finals.pop()
