"""Belief update: progression of a belief state through actions.

Updating a set of states by an action collects every successor of every
member under the transition relation.  Updating by a trajectory folds this
step over the actions in order.  No minimisation or selection is involved,
so update works unchanged on nondeterministic systems.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .kernel import StateSet, TransitionSystem

ActionTrajectory = Sequence[str]


def update(kappa: Iterable[int], action: str, ts: TransitionSystem) -> StateSet:
    """One-step update: the image of ``kappa`` under a known ``action``."""
    rows = ts._successor_sets(action)
    out: set[int] = set()
    for s in kappa:
        if not 0 <= s < len(rows):
            raise ValueError(f"state index {s} out of range")
        out |= rows[s]
    return frozenset(out)


def update_seq(kappa: Iterable[int], actions: ActionTrajectory, ts: TransitionSystem) -> StateSet:
    """Update by a whole action trajectory; the empty trajectory is identity."""
    current = frozenset(kappa)
    for a in actions:
        current = update(current, a, ts)
    return current


def successor(state: int, actions: ActionTrajectory, ts: TransitionSystem) -> StateSet:
    """States reachable from a single state along an action trajectory."""
    return update_seq(frozenset((state,)), actions, ts)
