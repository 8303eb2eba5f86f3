"""Belief revision driven by rankings that are faithful to a belief state.

A ranking is a total pre-order over states, stored as its strata: disjoint
state masks, most plausible first; a ranking faithful to a belief state has
it as its first stratum.  Revising by an observation keeps its part in the
first stratum that meets it.  The default ranking is the Hamming distance to
the nearest believed state (Dalal's measure), built layer by layer on masks.

Rankings can also be pushed forward through an action of a deterministic
transition system: a state reachable by the action inherits the best rank of
its predecessors.  ``combined_change`` applies an action and an observation
in one step under that shifted ranking, pushing strata forward only until
one reaches the observation.

State sets cross the API as frozensets and become masks inside, through
``kernel._state_mask`` where an index is checked against the signature.
Revision takes an observation only when the ranking grades all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Optional

from .kernel import Signature, StateSet, TransitionSystem, _image, _mask, _members
from .kernel import _require_deterministic, _state_mask
from .update import update


@dataclass(frozen=True)
class Ranking:
    """A plausibility pre-order: ``strata`` are disjoint state masks, most
    plausible first, and a state's rank is the index of its stratum.  States
    in no stratum are unranked; a stratum may be empty."""

    strata: tuple[int, ...]
    # The mask of the ranked states, set once per ranking; a plain field, as
    # a cached_property takes a lock on each ranking's first read before
    # Python 3.12.
    _graded: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_graded", reduce(or_, self.strata, 0))

    @property
    def base(self) -> StateSet:
        """The most plausible states: those of the first stratum."""
        return _members(self.strata[0] if self.strata else 0)

    @property
    def domain(self) -> StateSet:
        """The ranked states."""
        return _members(self._graded)

    def rank_of(self, state: int) -> Optional[int]:
        """The index of the stratum holding ``state``; None if unranked."""
        return next((r for r, m in enumerate(self.strata) if m >> state & 1), None)


RankingAssignment = Callable[[StateSet], Ranking]


def _least(alpha: int, ranking: Ranking) -> int:
    """The states of mask ``alpha`` in the first stratum that meets it."""
    for stratum in ranking.strata:
        if stratum & alpha:
            return stratum & alpha
    return 0


def _revised(alpha: int, ranking: Ranking) -> int:
    """Revision on masks: ``_least``, once every state of ``alpha`` is found
    ranked; the lowest that is not raises ``ValueError`` as out of range."""
    stray = alpha & ~ranking._graded
    if stray:
        raise ValueError(f"state index {(stray & -stray).bit_length() - 1} out of range")
    return _least(alpha, ranking)


def dalal_ranking(kappa: Iterable[int], sig: Signature) -> Ranking:
    """Rank each state by its Hamming distance to the nearest base state: a
    stratum is the one before it with one fluent flipped, less ranked states."""
    layer = _state_mask(kappa, sig.num_states)
    if not layer:
        raise ValueError("cannot rank around an empty belief state")
    full = (1 << sig.num_states) - 1
    ranked = layer
    strata = [layer]
    while ranked != full:
        grown = 0
        for k, true in enumerate(sig._fluent_masks):
            grown |= (layer & ~true) << (1 << k) | (layer & true) >> (1 << k)
        layer = grown & ~ranked
        ranked |= layer
        strata.append(layer)
    return Ranking(tuple(strata))


def dalal_assignment(sig: Signature) -> RankingAssignment:
    """The rule mapping any non-empty belief state to its Dalal ranking."""
    return lambda kappa: dalal_ranking(kappa, sig)


def revise(kappa: StateSet, alpha: StateSet, assign: RankingAssignment) -> StateSet:
    """Keep the most plausible states of ``alpha`` under the ranking for ``kappa``.

    Every state of ``alpha`` must be ranked: the lowest state that is not
    raises ``ValueError`` as out of range.  Revising by the empty observation
    yields the empty set, and by anything non-empty a non-empty subset of it.
    """
    if not kappa:
        raise ValueError("cannot revise an empty belief state")
    if not alpha:
        return frozenset()
    ranking = assign(kappa)
    graded = ranking._graded
    if min(alpha) < 0 or max(alpha) >= graded.bit_length():
        # A negative state has no mask bit and a huge one needs a huge mask.
        stray = min(s for s in alpha if s < 0 or not graded >> s & 1)
        raise ValueError(f"state index {stray} out of range")
    return _members(_revised(_mask(alpha), ranking))


def shift_ranking(ranking: Ranking, action: str, ts: TransitionSystem) -> Ranking:
    """Push a ranking forward through an action of a deterministic system.

    Each stratum maps to its image, less the states an earlier image holds;
    an emptied stratum stays, so every state keeps its inherited rank.
    """
    succ = ts.successor_map(action)
    reached = 0
    strata = []
    for stratum in ranking.strata:
        image = _image(stratum & ((1 << len(succ)) - 1), succ)  # none past the signature
        strata.append(image & ~reached)
        reached |= image
    return Ranking(tuple(strata))


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
    observed = _state_mask(alpha, ts.signature.num_states)
    succ = ts._least_successors(action)
    if ts._reach(action) & observed:
        if assign is None:
            assign = dalal_assignment(ts.signature)
        # The shifted ranking's first stratum to meet alpha is the first
        # image that does, as no earlier image holds a state of alpha.
        for stratum in assign(kappa).strata:
            hit = _image(stratum & ((1 << len(succ)) - 1), succ) & observed  # as in shift_ranking
            if hit:
                return _members(hit)
        return frozenset()
    return update(kappa, action, ts)
