"""Signatures, states, formulas, and transition systems.

A signature fixes a finite list of fluent names and a finite list of action
names.  A state is a truth assignment to the fluents, identified with its
canonical index: bit k of the index gives the value of the k-th declared
fluent.  Public functions take and return state sets as frozensets of these
indices; inside the package a state set may also be a mask, an int with bit
s set for each member s.  ``_mask`` and ``_members`` convert between the
two; ``_state_mask`` is ``_mask`` for a set from outside the package, with
each index checked, and ``_image`` maps a mask through a successor function.
A ranking is a tuple of masks, one per stratum.
Fluent names become a state through one table, ``Signature._bits``, which
``state_index`` and every reader in ``dsl`` share; a literal written
canonically, true fluents in declaration order, is also found whole in
``Signature._literal_states``.  Other helpers convert between indices,
fluent sets, and display strings.

A fluent or action name matches ``_NAME``, the one name rule that
``make_signature`` and every reader and writer in ``dsl`` share, so any
signature the library accepts can be written out and read back.

Transition systems are total by construction: every (state, action) pair has
at least one successor.  The reserved action "noop" always behaves as the
identity and cannot be redefined.  The system is the one place that rejects
an unknown action (``successors``, ``successor_map``) and, through
``TransitionSystem._build``, which both constructors share, a bad triple.
It stores each action's least successor per state, plus the other
successors of the states that have more.  ``_require_deterministic`` states
when an operation needs a deterministic system.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

NULL_ACTION = "noop"

# Index-based state sets stay practical up to this many fluents.
MAX_FLUENTS = 16

StateSet = frozenset[int]

# A fluent or action name: ASCII letters, digits and underscores, not
# starting with a digit.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Signature:
    """An ordered fluent vocabulary plus an action vocabulary.

    The declaration order of ``fluents`` is significant: it fixes the
    canonical state indexing.  ``actions`` always contains ``NULL_ACTION``.
    """

    fluents: tuple[str, ...]
    actions: tuple[str, ...]

    # Derived once per signature, on first use; not fields, so equality,
    # hashing and the constructor see only the two vocabularies.
    @cached_property
    def num_states(self) -> int:
        return 1 << len(self.fluents)

    @cached_property
    def _bits(self) -> dict[str, int]:
        """Each fluent's bit in a state index: the one name-to-state table."""
        return {f: 1 << k for k, f in enumerate(self.fluents)}

    @cached_property
    def _universe(self) -> StateSet:
        return frozenset(range(self.num_states))

    @cached_property
    def _fluent_masks(self) -> tuple[int, ...]:
        """Per fluent, the mask of the states in which it is true."""
        full = (1 << self.num_states) - 1
        # full // (2^(2^k) + 1) repeats 2^k set bits and 2^k clear ones from
        # bit 0 up: the states in which fluent k is false.
        return tuple(
            full ^ full // ((1 << (1 << k)) + 1) for k in range(len(self.fluents))
        )

    @cached_property
    def _true_names(self) -> tuple[tuple[str, ...], ...]:
        """The true fluents of every state, indexed by state."""
        names: list[tuple[str, ...]] = [()]
        for f in self.fluents:
            names += [t + (f,) for t in names]
        return tuple(names)

    @cached_property
    def _literal_states(self) -> dict[str, int]:
        """Each state by its literal's canonical inner text: ``"f0,f2"`` → 5."""
        return {",".join(t): s for s, t in enumerate(self._true_names)}


def _check_name(name: str, kind: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} name must be a non-empty string: {name!r}")
    if not _NAME.fullmatch(name):
        raise ValueError(f"{kind} name must match {_NAME.pattern}: {name!r}")


def make_signature(fluents: Iterable[str], actions: Iterable[str] = ()) -> Signature:
    """Build a signature whose actions end with the reserved noop action."""
    flu = tuple(fluents)
    act = tuple(actions)
    if len(flu) > MAX_FLUENTS:
        raise ValueError(f"too many fluents ({len(flu)}); the cap is {MAX_FLUENTS}")
    for name in flu:
        _check_name(name, "fluent")
    for name in act:
        _check_name(name, "action")
    if len(set(flu)) != len(flu):
        raise ValueError("duplicate fluent names")
    if len(set(act)) != len(act):
        raise ValueError("duplicate action names")
    # The file formats leave noop implicit, so it always comes last.
    act = tuple(a for a in act if a != NULL_ACTION) + (NULL_ACTION,)
    return Signature(flu, act)


def _mask(states: Iterable[int]) -> int:
    """The mask of a state set: bit s is set for each member s."""
    mask = 0
    for s in states:
        mask |= 1 << s
    return mask


def _state_mask(states: Iterable[int], num_states: int) -> int:
    """The mask of a state set from outside the package, each index checked."""
    mask = 0
    for s in states:
        if not 0 <= s < num_states:
            raise ValueError(f"state index {s} out of range")
        mask |= 1 << s
    return mask


def _members(mask: int) -> StateSet:
    """The state set of a mask: every s whose bit is set."""
    # bin() gives the bits most significant first, after a '0b' prefix.
    return frozenset(s for s, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def _image(mask: int, succ: Sequence[int]) -> int:
    """The mask of the successors under ``succ`` of the states of ``mask``."""
    image = 0
    bits = bin(mask)[:1:-1]  # bits[s] is "1" for each member s
    s = bits.find("1")
    while s >= 0:
        image |= 1 << succ[s]
        s = bits.find("1", s + 1)
    return image


def universe(sig: Signature) -> StateSet:
    """The set of all states over the signature."""
    return sig._universe


def state_index(sig: Signature, true_fluents: Iterable[str]) -> int:
    """Canonical index of the state in which exactly the given fluents hold."""
    s = 0
    for name in true_fluents:
        try:
            s |= sig._bits[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValueError(f"unknown fluent {name!r}") from None
    return s


def true_fluents(sig: Signature, state: int) -> tuple[str, ...]:
    """The fluents true in a state, in declaration order."""
    if not 0 <= state < sig.num_states:
        raise ValueError(f"state index {state} out of range")
    return sig._true_names[state]


def format_state(sig: Signature, state: int) -> str:
    return "{" + ",".join(true_fluents(sig, state)) + "}"


def _sorted_names(sig: Signature, states: Iterable[int]) -> list[tuple[str, ...]]:
    """The true fluents of each state, in canonical index order."""
    ordered = sorted(states)
    n = sig.num_states
    if ordered and not (0 <= ordered[0] and ordered[-1] < n):
        bad = next(s for s in ordered if not 0 <= s < n)
        raise ValueError(f"state index {bad} out of range")
    names = sig._true_names
    return [names[s] for s in ordered]


def format_state_set(sig: Signature, states: Iterable[int]) -> str:
    """Render a state set with members in canonical index order."""
    inner = ", ".join("{" + ",".join(t) + "}" for t in _sorted_names(sig, states))
    return "{ " + inner + " }" if inner else "{ }"


def states_data(sig: Signature, states: Iterable[int]) -> list[list[str]]:
    """Machine encoding of a state set: sorted states as true-fluent lists."""
    return [list(t) for t in _sorted_names(sig, states)]


def signature_data(sig: Signature) -> dict:
    """Machine encoding of a signature; the implicit noop action is left out."""
    return {
        "fluents": list(sig.fluents),
        "actions": [a for a in sig.actions if a != NULL_ACTION],
    }


# ---------------------------------------------------------------------------
# Propositional formulas over the fluents.


class Formula:
    """Base class for formula AST nodes.  Equality and hashing walk a tree
    with an explicit stack, so a formula of any height is fine."""

    __slots__ = ()

    def _prefix(self) -> list:
        """Each node's class, or an atom's name, in prefix order."""
        out: list = []
        todo: list[Formula] = [self]
        while todo:
            f = todo.pop()
            if isinstance(f, Atom):
                out.append(f.name)
            else:
                out.append(type(f))
                todo += reversed(vars(f).values())  # the operands, last first
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Formula) and self._prefix() == other._prefix()

    def __hash__(self) -> int:
        return hash(tuple(self._prefix()))


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Iff(Formula):
    left: Formula
    right: Formula


def models(phi: Formula, sig: Signature) -> StateSet:
    """All states of the signature that satisfy the formula.

    Each connective is one operation on masks, evaluated with an explicit
    stack, so a formula of any depth is fine.
    """
    full = (1 << sig.num_states) - 1
    todo: list[tuple[Formula, bool]] = [(phi, False)]
    done: list[int] = []
    while todo:
        f, ready = todo.pop()
        if isinstance(f, Atom):
            if f.name not in sig.fluents:
                raise ValueError(f"unknown fluent {f.name!r} in formula")
            done.append(sig._fluent_masks[sig.fluents.index(f.name)])
        elif isinstance(f, Not):
            if ready:
                done.append(full ^ done.pop())
            else:
                todo += ((f, True), (f.arg, False))
        elif isinstance(f, (And, Or, Implies, Iff)):
            if not ready:
                # The left operand is evaluated first, as a reader would.
                todo += ((f, True), (f.right, False), (f.left, False))
                continue
            right = done.pop()
            left = done.pop()
            if isinstance(f, And):
                done.append(left & right)
            elif isinstance(f, Or):
                done.append(left | right)
            elif isinstance(f, Implies):
                done.append((full ^ left) | right)
            else:
                done.append(full ^ left ^ right)
        else:
            raise TypeError(f"not a formula: {f!r}")
    return _members(done.pop())


# ---------------------------------------------------------------------------
# Transition systems.


@dataclass(frozen=True, init=False)
class TransitionSystem:
    """A total labelled transition relation over the states of a signature.

    ``TransitionSystem(sig, relation)`` takes (source, action, target)
    triples that must cover every (state, action) pair; rows for the noop
    action must be exactly the identity.  Use :func:`complete_transitions`
    to build one from a partial description.  The relation is stored once:
    ``_succ[a][s]`` is the least successor of state s under action a, and
    ``_more[a, s]`` the sorted other successors of s where it has any, so a
    deterministic system has an empty ``_more``.  ``relation`` is derived
    from the two on first use.
    """

    signature: Signature
    _succ: dict[str, tuple[int, ...]] = field(repr=False)
    _more: dict[tuple[str, int], tuple[int, ...]] = field(repr=False)

    def __init__(
        self, signature: Signature, relation: Iterable[tuple[int, str, int]]
    ) -> None:
        self._build(signature, relation, fill=False)

    def _build(
        self, signature: Signature, triples: Iterable[tuple[int, str, int]], fill: bool
    ) -> None:
        """Store the triples, each one checked; a pair no triple lists gets a
        self-loop under ``fill`` and is an error otherwise."""
        n = signature.num_states
        rows = {a: [-1] * n for a in signature.actions}
        extra: dict[tuple[str, int], set[int]] = {}
        for src, act, dst in triples:
            try:
                row = rows[act]
            except (KeyError, TypeError):  # TypeError: an unhashable action
                raise ValueError(f"unknown action {act!r} in transition") from None
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"transition ({src}, {act!r}, {dst}) out of range")
            if act == NULL_ACTION and src != dst:
                raise ValueError(
                    f"the {NULL_ACTION} action must be the identity, got ({src}, {dst})"
                )
            first = row[src]
            if first < 0:
                row[src] = dst
            elif first != dst:
                extra.setdefault((act, src), {first}).add(dst)
        more = {}
        for (a, s), targets in extra.items():
            rows[a][s], *rest = sorted(targets)
            more[a, s] = tuple(rest)
        for a, row in rows.items():
            if -1 in row:
                if not fill:
                    raise ValueError(
                        f"no successor for state {row.index(-1)} under action {a!r}; "
                        "use complete_transitions to fill in self-loops"
                    )
                rows[a] = [s if t < 0 else t for s, t in enumerate(row)]
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "_succ", {a: tuple(row) for a, row in rows.items()})
        object.__setattr__(self, "_more", more)

    def __hash__(self) -> int:
        # The order of _more follows the triples, so it is hashed as a set.
        return hash(
            (self.signature, tuple(self._succ.items()), frozenset(self._more.items()))
        )

    @cached_property
    def relation(self) -> frozenset[tuple[int, str, int]]:
        """Every (source, action, target) triple of the system."""
        return frozenset(
            (s, a, t) for a, succ in self._succ.items() for s, t in enumerate(succ)
        ).union((s, a, t) for (a, s), more in self._more.items() for t in more)

    @property
    def deterministic(self) -> bool:
        return not self._more

    def _reach(self, action: str) -> int:
        """The mask of every state's least successor under an action (all it
        reaches, in a deterministic system), built once per action and kept
        beside the fields like ``relation``."""
        reached = self.__dict__.setdefault("_reached", {})
        if action not in reached:
            reached[action] = _mask(self._least_successors(action))
        return reached[action]

    def _least_successors(self, action: str) -> tuple[int, ...]:
        """Each state's least successor under an action, indexed by state."""
        try:
            return self._succ[action]
        except KeyError:
            raise ValueError(f"unknown action {action!r}") from None

    def successors(self, state: int, action: str) -> StateSet:
        """All states reachable from ``state`` by one step of ``action``."""
        succ = self._least_successors(action)
        if not 0 <= state < self.signature.num_states:
            raise ValueError(f"state index {state} out of range")
        return frozenset((succ[state], *self._more.get((action, state), ())))

    def successor_map(self, action: str) -> tuple[int, ...]:
        """The one-step successor function of an action; deterministic only."""
        _require_deterministic(self)
        return self._least_successors(action)


def _require_deterministic(ts: TransitionSystem) -> None:
    """Reject a nondeterministic system: the one statement of the rule."""
    if ts._more:
        raise ValueError("this operation requires a deterministic transition system")


def complete_transitions(
    sig: Signature, triples: Iterable[tuple[int, str, int]]
) -> TransitionSystem:
    """Build a total transition system from a partial set of triples.

    Every (state, action) pair not mentioned in ``triples`` gets a self-loop,
    and identity rows for the noop action are always added.  Explicit noop
    triples are rejected unless they are identity loops.
    """
    ts = TransitionSystem.__new__(TransitionSystem)
    ts._build(sig, triples, fill=True)
    return ts
