"""Signatures, states, formulas, and transition systems.

A signature fixes a finite list of fluent names and a finite list of action
names.  A state is a truth assignment to the fluents, identified with its
canonical index: bit k of the index gives the value of the k-th declared
fluent.  Public functions take and return state sets as frozensets of these
indices; inside the package a state set may also be a mask, an int with bit
s set for each member s, which only ``_mask`` and ``_members`` convert.
Fluent names become a state through one table, ``Signature._bits``, which
``state_index`` and every reader in ``dsl`` share.  Other helpers convert
between indices, fluent sets, and display strings.

Transition systems are total by construction: every (state, action) pair has
at least one successor.  The reserved action "noop" always behaves as the
identity and cannot be redefined.  The system is the one place that rejects
an unknown action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

NULL_ACTION = "noop"

# Index-based state sets stay practical up to this many fluents.
MAX_FLUENTS = 16

StateSet = frozenset[int]


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


def _check_name(name: str, kind: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} name must be a non-empty string: {name!r}")
    if any(c.isspace() for c in name):
        raise ValueError(f"{kind} name may not contain whitespace: {name!r}")


def make_signature(fluents: Iterable[str], actions: Iterable[str] = ()) -> Signature:
    """Build a signature, appending the reserved noop action if absent."""
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
    if NULL_ACTION not in act:
        act = act + (NULL_ACTION,)
    return Signature(flu, act)


def _mask(states: Iterable[int]) -> int:
    """The mask of a state set: bit s is set for each member s."""
    mask = 0
    for s in states:
        mask |= 1 << s
    return mask


def _members(mask: int) -> StateSet:
    """The state set of a mask: every s whose bit is set."""
    # bin() gives the bits most significant first, after a '0b' prefix.
    return frozenset(s for s, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


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
    to build one from a partial description.  Only the per-action successor
    tables are stored; ``relation`` is derived from them on first use.
    """

    signature: Signature
    _succ_sets: dict[str, tuple[StateSet, ...]] = field(repr=False)
    _succ_fun: dict[str, tuple[int, ...]] | None = field(repr=False, compare=False)

    def __init__(
        self, signature: Signature, relation: Iterable[tuple[int, str, int]]
    ) -> None:
        n = signature.num_states
        raw: dict[str, list[set[int]]] = {
            a: [set() for _ in range(n)] for a in signature.actions
        }
        for src, act, dst in relation:
            if act not in raw:
                raise ValueError(f"unknown action {act!r} in transition")
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"transition ({src}, {act!r}, {dst}) out of range")
            if act == NULL_ACTION and src != dst:
                raise ValueError(
                    f"the {NULL_ACTION} action must be the identity, got ({src}, {dst})"
                )
            raw[act][src].add(dst)
        for a, rows in raw.items():
            for src, row in enumerate(rows):
                if not row:
                    raise ValueError(
                        f"no successor for state {src} under action {a!r}; "
                        "use complete_transitions to fill in self-loops"
                    )
        self._set_tables(
            signature, {a: tuple(map(frozenset, rows)) for a, rows in raw.items()}
        )

    @classmethod
    def _from_tables(
        cls, signature: Signature, succ_sets: dict[str, tuple[StateSet, ...]]
    ) -> TransitionSystem:
        """A system from total, already validated successor tables."""
        ts = cls.__new__(cls)
        ts._set_tables(signature, succ_sets)
        return ts

    def _set_tables(
        self, signature: Signature, succ_sets: dict[str, tuple[StateSet, ...]]
    ) -> None:
        succ_fun = None
        if all(max(map(len, rows)) == 1 for rows in succ_sets.values()):
            succ_fun = {a: tuple(map(min, rows)) for a, rows in succ_sets.items()}
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "_succ_sets", succ_sets)
        object.__setattr__(self, "_succ_fun", succ_fun)

    def __hash__(self) -> int:
        return hash((self.signature, tuple(self._succ_sets.items())))

    @cached_property
    def relation(self) -> frozenset[tuple[int, str, int]]:
        """Every (source, action, target) triple of the system."""
        return frozenset(
            (src, a, dst)
            for a, rows in self._succ_sets.items()
            for src, row in enumerate(rows)
            for dst in row
        )

    @property
    def deterministic(self) -> bool:
        return self._succ_fun is not None

    def _successor_sets(self, action: str) -> tuple[StateSet, ...]:
        """The successor table of an action, indexed by state."""
        try:
            return self._succ_sets[action]
        except KeyError:
            raise ValueError(f"unknown action {action!r}") from None

    def successors(self, state: int, action: str) -> StateSet:
        """All states reachable from ``state`` by one step of ``action``."""
        rows = self._successor_sets(action)
        if not 0 <= state < self.signature.num_states:
            raise ValueError(f"state index {state} out of range")
        return rows[state]

    def successor_map(self, action: str) -> tuple[int, ...]:
        """The one-step successor function of an action; deterministic only."""
        if self._succ_fun is None:
            raise ValueError("transition system is not deterministic")
        try:
            return self._succ_fun[action]
        except KeyError:
            raise ValueError(f"unknown action {action!r}") from None


def complete_transitions(
    sig: Signature, triples: Iterable[tuple[int, str, int]]
) -> TransitionSystem:
    """Build a total transition system from a partial set of triples.

    Every (state, action) pair not mentioned in ``triples`` gets a self-loop,
    and identity rows for the noop action are always added.  Explicit noop
    triples are rejected unless they are identity loops.
    """
    n = sig.num_states
    listed: dict[tuple[str, int], set[int]] = {}
    for src, act, dst in triples:
        if act == NULL_ACTION and src != dst:
            raise ValueError(
                f"explicit non-identity {NULL_ACTION} transition ({src} -> {dst})"
            )
        if act not in sig.actions:
            raise ValueError(f"unknown action {act!r} in transition")
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"transition ({src}, {act!r}, {dst}) out of range")
        row = listed.get((act, src))
        if row is None:
            listed[act, src] = {dst}
        else:
            row.add(dst)
    loops = tuple(frozenset((s,)) for s in range(n))
    tables = {a: list(loops) for a in sig.actions}
    for (act, src), row in listed.items():
        tables[act][src] = frozenset(row)
    return TransitionSystem._from_tables(sig, {a: tuple(t) for a, t in tables.items()})
