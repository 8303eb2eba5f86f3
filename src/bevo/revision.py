"""Belief revision driven by rankings that are faithful to a belief state.

A ranking grades every state by plausibility, with the current belief state
occupying the unique minimal stratum.  Revising by an observation keeps the
most plausible states satisfying it.  The default grading is the Hamming
distance to the nearest member of the belief state (Dalal's measure).

Rankings can also be pushed forward through an action of a deterministic
transition system: a state reachable by the action inherits the best rank of
its predecessors.  ``combined_change`` uses that shifted ranking to apply an
action and an observation in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .kernel import Signature, StateSet, TransitionSystem, _require_deterministic
from .update import update


@dataclass(frozen=True)
class FaithfulRanking:
    """A total plausibility grading anchored to a belief state.

    ``ranks[s]`` is the rank of state ``s``; lower is more plausible.  The
    members of ``base`` must share the strictly smallest rank.
    """

    base: StateSet
    ranks: tuple[int, ...]

    def rank_of(self, state: int) -> int:
        return self.ranks[state]


@dataclass(frozen=True)
class ShiftedRanking:
    """A ranking pushed forward through one action; partial by nature.

    Only states with at least one predecessor under the action are graded;
    ``rank_of`` returns None for the rest.
    """

    action: str
    ranks: Mapping[int, int]

    def rank_of(self, state: int) -> Optional[int]:
        return self.ranks.get(state)

    @property
    def domain(self) -> StateSet:
        return frozenset(self.ranks)


RankingAssignment = Callable[[StateSet], FaithfulRanking]


def check_faithful(ranking: FaithfulRanking) -> bool:
    """True when the base states share one rank strictly below all others."""
    if not ranking.base:
        return False
    if any(not 0 <= s < len(ranking.ranks) for s in ranking.base):
        return False
    base_ranks = {ranking.ranks[s] for s in ranking.base}
    if len(base_ranks) != 1:
        return False
    floor = base_ranks.pop()
    return all(
        ranking.ranks[s] > floor
        for s in range(len(ranking.ranks))
        if s not in ranking.base
    )


def dalal_ranking(kappa: Iterable[int], sig: Signature) -> FaithfulRanking:
    """Rank each state by its Hamming distance to the nearest base state."""
    base = frozenset(kappa)
    if not base:
        raise ValueError("cannot rank around an empty belief state")
    ranks = tuple(
        min((s ^ b).bit_count() for b in base) for s in range(sig.num_states)
    )
    return FaithfulRanking(base, ranks)


def dalal_assignment(sig: Signature) -> RankingAssignment:
    """The rule mapping any non-empty belief state to its Dalal ranking."""
    return lambda kappa: dalal_ranking(kappa, sig)


def min_states(alpha: Iterable[int], ranking) -> StateSet:
    """The minimal-rank members of ``alpha``; unranked states are skipped."""
    best: Optional[int] = None
    out: list[int] = []
    for s in alpha:
        r = ranking.rank_of(s)
        if r is None:
            continue
        if best is None or r < best:
            best = r
            out = [s]
        elif r == best:
            out.append(s)
    return frozenset(out)


def revise(kappa: StateSet, alpha: StateSet, assign: RankingAssignment) -> StateSet:
    """Keep the most plausible states of ``alpha`` under the ranking for ``kappa``.

    Revising by the empty observation yields the empty set; revising by
    anything non-empty yields a non-empty subset of it.
    """
    if not kappa:
        raise ValueError("cannot revise an empty belief state")
    if not alpha:
        return frozenset()
    return min_states(alpha, assign(kappa))


def shift_ranking(
    ranking: FaithfulRanking, action: str, ts: TransitionSystem
) -> ShiftedRanking:
    """Push a ranking forward through an action of a deterministic system."""
    succ = ts.successor_map(action)
    shifted: dict[int, int] = {}
    for src, rank in enumerate(ranking.ranks):
        dst = succ[src]
        if dst not in shifted or rank < shifted[dst]:
            shifted[dst] = rank
    return ShiftedRanking(action, shifted)


def combined_change(
    kappa: StateSet,
    action: str,
    alpha: StateSet,
    ts: TransitionSystem,
    assign: RankingAssignment | None = None,
) -> StateSet:
    """Apply one action and then one observation in a single ranked step.

    When the observation is reachable at all (some state maps into it), the
    result is the most plausible part of ``alpha`` under the shifted ranking.
    Otherwise the observation is dropped and the result is plain update.
    """
    _require_deterministic(ts)
    if not kappa:
        raise ValueError("cannot change an empty belief state")
    if assign is None:
        assign = dalal_assignment(ts.signature)
    reachable = frozenset(ts.successor_map(action))
    if reachable & alpha:
        shifted = shift_ranking(assign(kappa), action, ts)
        return min_states(alpha, shifted)
    return update(kappa, action, ts)
