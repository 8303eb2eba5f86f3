"""Line-oriented text formats for domains, scenarios, rankings, and results.

Three file kinds share one lexical style: one directive per line, ``#``
comments, state literals listing the true fluents (``{Red,Acid}``; ``{}`` is
the all-false state), and state-set literals wrapping those in another pair
of braces.  Names follow the kernel's one rule, ``kernel._NAME``.  Each file
starts with ``KIND NAME`` (``_named``); ``_Cursor`` reads the rest, one line
at a time, and checks a domain's ``fluents`` and ``actions`` lines as it
reads them.  The one exception is the text ``serialize_domain`` writes: a
transition line whose two literals are canonical, found whole in
``Signature._literal_states``, is read by one pattern match.  Parsing never
raises anything but ParseError on malformed input, and every ParseError
carries a 1-based line and column.

Serialization is canonical: parsing a serialized document yields a
structurally equal document, and equal documents serialize to equal bytes.
``machine_text`` is the one writer of the JSON machine format, for results
here and for every ``--format machine`` document of the CLI.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Container, Iterable, Iterator, Union

from .kernel import (
    _NAME,
    _mask,
    _sorted_names,
    NULL_ACTION,
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    StateSet,
    TransitionSystem,
    complete_transitions,
    format_state,
    format_state_set,
    make_signature,
    models,
    signature_data,
    state_index,
    universe,
)
from .revision import Ranking, RankingAssignment
from .evolution import (
    BeliefTrajectory,
    EvolutionResult,
    ReliabilityFunction,
    WorldView,
    constant,
    fixed_weights,
    recency,
)


class ParseError(ValueError):
    """Syntax or validation failure, located by 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Cursor:
    """Position tracker over one source line."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.depth = 0  # formula levels open at pos

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.pos + 1)

    def nest(self) -> None:
        """Open one more formula level, within MAX_FORMULA_DEPTH."""
        self.depth += 1
        if self.depth > MAX_FORMULA_DEPTH:
            raise self.error(f"formula nested more than {MAX_FORMULA_DEPTH} levels deep")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, literal: str) -> bool:
        # skip_ws, written out: formulas call take at every level per operand.
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        if text.startswith(literal, pos):
            self.pos = pos + len(literal)
            return True
        self.pos = pos
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def word(self) -> str:
        """A name, by the kernel's one name rule."""
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if m is None:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def items(self, read: Callable[[], Any]) -> tuple:
        """Values ``read`` one after another up to the end of the line."""
        got = []
        while not self.at_end():
            got.append(read())
        return tuple(got)

    def known(self, names: Container[str], kind: str) -> str:
        """A name from ``names``; any other is an unknown ``kind``."""
        name = self.word()
        if name not in names:
            self.pos -= len(name)
            raise self.error(f"unknown {kind} {name!r}")
        return name

    def directive(self, header: str, seen: set[str], once: Container[str]) -> str:
        """The line's directive; ``header`` and those in ``once`` may not repeat."""
        key = self.word()
        if key == header or key in seen:
            raise self.error(f"duplicate {key!r} directive")
        if key in once:
            seen.add(key)
        return key

    def signature(self, fluents: tuple[str, ...], actions: tuple[str, ...]) -> Signature:
        """``make_signature``, its errors located at the cursor."""
        try:
            return make_signature(fluents, actions)
        except ValueError as e:
            raise self.error(str(e))

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than the interpreter converts
            count, self.pos = self.pos - digits, start
            raise self.error(f"integer too long ({count} digits)") from None

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.error("unexpected trailing text")

    # State literals: {A,B} with only declared fluents, {} for all-false.
    def state_literal(self, sig: Signature) -> int:
        self.expect("{")
        state = 0
        if not self.take("}"):
            while True:
                name = self.known(sig._bits, "fluent")
                bit = sig._bits[name]
                if state & bit:
                    self.pos -= len(name)
                    raise self.error(f"fluent {name!r} listed twice")
                state |= bit
                if self.take("}"):
                    break
                self.expect(",")
        return state

    # State-set literals: { {..}, {..} }; the empty set is written { }.
    def state_set_literal(self, sig: Signature) -> StateSet:
        self.expect("{")
        states: set[int] = set()
        if not self.take("}"):
            while True:
                states.add(self.state_literal(sig))
                if self.take("}"):
                    break
                self.expect(",")
        return frozenset(states)


# ---------------------------------------------------------------------------
# Formulas.  _BINARY gives each binary connective's symbol, precedence and
# the levels of both operands, and is the one statement of precedence and
# associativity: _parse_formula reads it level by level, loosest first, and
# serialize_formula renders by it.  ! binds tightest, at level len(_BINARY).
# Arrows read their right operand at their own level, so they right-associate;
# & and | left-associate, so a right-nested one needs parens.
_BINARY = {
    And: ("&", 3, 3, 4),
    Or: ("|", 2, 2, 3),
    Implies: ("->", 1, 2, 1),
    Iff: ("<->", 0, 1, 0),
}
# Indexed by precedence: each level's symbol, class and right-operand level,
# then None for the level of !, parentheses and atoms.
_LEVELS = tuple(
    (op, cls, right) for cls, (op, _, _, right) in sorted(_BINARY.items(), key=lambda e: e[1][1])
) + (None,)

# Each !, ( and binary operator opens one level on the cursor.  A chain of &
# or | keeps its levels until the chain ends; an arrow, a ! or a ( releases
# its level once its operand is read.  A formula deeper than this is a
# ParseError and never exhausts the interpreter's stack, however it nests.
MAX_FORMULA_DEPTH = 100


def _parse_formula(cur: _Cursor, sig: Signature, prec: int = 0) -> Formula:
    """The formula at ``cur`` whose unparenthesised connectives bind at ``prec`` or tighter."""
    level = _LEVELS[prec]
    if level is not None:
        op, cls, right = level
        base = cur.depth
        left = _parse_formula(cur, sig, prec + 1)
        while cur.take(op):
            cur.nest()
            left = cls(left, _parse_formula(cur, sig, right))
        cur.depth = base
        return left
    if cur.take("!"):
        cur.nest()
        inner: Formula = Not(_parse_formula(cur, sig, prec))
    elif cur.take("("):
        cur.nest()
        inner = _parse_formula(cur, sig)
        cur.expect(")")
    else:
        return Atom(cur.known(sig._bits, "fluent"))
    cur.depth -= 1
    return inner


def parse_formula(text: str, sig: Signature, line: int = 1) -> Formula:
    """Parse one formula; fluent names must come from the signature."""
    cur = _Cursor(text, line)
    out = _parse_formula(cur, sig)
    cur.expect_end()
    return out


def parse_state_set(text: str, sig: Signature) -> StateSet:
    """Parse one standalone state-set literal such as ``{ {}, {Acid} }``."""
    cur = _Cursor(text, 1)
    out = cur.state_set_literal(sig)
    cur.expect_end()
    return out


def serialize_formula(f: Formula) -> str:
    """Minimal-paren rendering using the grammar's precedence.

    Rendered with an explicit stack, so a formula of any depth is fine.
    """
    out: list[str] = []
    todo: list[Union[str, tuple[Formula, int]]] = [(f, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, level = item
        if isinstance(g, Atom):
            out.append(g.name)
        elif isinstance(g, Not):
            out.append("!")
            todo.append((g.arg, len(_BINARY)))
        elif type(g) in _BINARY:
            op, prec, left, right = _BINARY[type(g)]
            parens = level > prec
            # Pushed last to first, so the left operand is rendered first.
            todo += [")"] * parens + [(g.right, right), f" {op} ", (g.left, left)]
            todo += ["("] * parens
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Shared line machinery.


def _raw_lines(text: str) -> Iterator[tuple[int, str]]:
    """Numbered non-blank lines with comments stripped."""
    for i, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        if hash_at != -1:
            raw = raw[:hash_at]
        if raw and not raw.isspace():
            yield i, raw


def _named(text: str, kind: str) -> tuple[str, Iterator[tuple[int, str]]]:
    """The name on a file's first line, ``KIND NAME``, and the lines after."""
    lines = _raw_lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError(f"empty {kind} file", 1, 1)
    cur = _Cursor(first[1], first[0])
    if cur.word() != kind:
        raise cur.error(f"the first directive must be '{kind} NAME'")
    name = cur.word()
    cur.expect_end()
    return name, lines


# ---------------------------------------------------------------------------
# Domain files (.bevd).


@dataclass(frozen=True)
class DomainDoc:
    """A named signature plus its completed transition system."""

    name: str
    signature: Signature
    ts: TransitionSystem
    declared_deterministic: bool = False
    strict: bool = False


# The shape of a ``transition ACT: {...} -> {...}`` line, spaces and tabs
# only.  The groups are the action token and the inner text of each state
# literal; they are names only once the lookups in parse_domain find them.
_TRANSITION_LINE = re.compile(
    r"[ \t]*transition[ \t]+([^ \t:]+)[ \t]*:[ \t]*\{([^{}]*)\}[ \t]*->[ \t]*\{([^{}]*)\}[ \t]*"
)


def parse_domain(text: str) -> DomainDoc:
    """Parse a domain file.

    Directives: ``domain NAME`` (first), ``fluents N...``, ``actions N...``,
    ``transition ACT: {F,...} -> {F,...}``, and the pragmas
    ``deterministic`` (reject two transitions from one source) and
    ``strict`` (demand an explicit transition for every state and action).
    Unlisted state/action pairs otherwise default to self-loops.
    """
    name, lines = _named(text, "domain")
    header: dict[str, tuple[str, ...]] = {"fluents": (), "actions": ()}
    triples: list[tuple[int, str, int]] = []
    flags = {"deterministic": 0, "strict": 0}  # the line that set each, or 0
    sig: Signature | None = None  # set once the fluents are known
    sources: set[tuple[str, int]] = set()
    duplicate: ParseError | None = None
    seen: set[str] = set()

    for lineno, raw in lines:
        # A transition line the pattern matches, with both literals written
        # canonically and a declared user action, skips the cursor; any
        # other line, malformed ones included, goes through the cursor
        # grammar so that every ParseError keeps its message and position.
        m = _TRANSITION_LINE.fullmatch(raw) if sig is not None else None
        if m is not None:
            act, src_text, dst_text = m.groups()
            src = sig._literal_states.get(src_text)
            dst = sig._literal_states.get(dst_text)
            if src is None or dst is None or act == NULL_ACTION or act not in sig.actions:
                m = None
        if m is None:
            cur = _Cursor(raw, lineno)
            key = cur.directive("domain", seen, (*header, *flags))
            # A transition names a declared action, so both header lines,
            # once-only, come before any transition.
            if key in header:
                header[key] = cur.items(cur.word)
                # Checked on each header line, so an error points at its line.
                checked = cur.signature(header["fluents"], header["actions"])
                sig = checked if "fluents" in seen else None
                continue
            if key in flags:
                cur.expect_end()
                flags[key] = lineno
                continue
            if key != "transition":
                raise cur.error(f"unknown directive {key!r}")
            if sig is None:
                raise cur.error("'fluents' must come before any transition")
            act = cur.known(sig.actions, "action")
            if act == NULL_ACTION:
                raise cur.error(
                    f"the {NULL_ACTION!r} action is implicit and cannot have "
                    "explicit transitions"
                )
            cur.expect(":")
            src = cur.state_literal(sig)
            cur.expect("->")
            dst = cur.state_literal(sig)
            cur.expect_end()
        # A duplicate source is an error only under 'deterministic', which
        # may come before or after the transitions; the first one found is
        # reported, at the end of its line.
        if (act, src) in sources:
            if duplicate is None:
                duplicate = ParseError(
                    f"duplicate transition source under 'deterministic': "
                    f"{act} from {format_state(sig, src)}",
                    lineno,
                    len(raw) + 1,
                )
        else:
            sources.add((act, src))
        triples.append((src, act, dst))

    if sig is None:
        raise ParseError("missing 'fluents' directive", 1, 1)
    if flags["deterministic"] and duplicate is not None:
        raise duplicate
    if flags["strict"]:
        for act in sig.actions:
            if act == NULL_ACTION:
                continue
            for s in range(sig.num_states):
                if (act, s) not in sources:
                    raise ParseError(
                        f"'strict' demands a transition for {act} from "
                        f"{format_state(sig, s)}",
                        flags["strict"],
                        1,
                    )
    ts = complete_transitions(sig, triples)
    return DomainDoc(name, sig, ts, bool(flags["deterministic"]), bool(flags["strict"]))


def serialize_domain(doc: DomainDoc) -> str:
    """Canonical text for a domain document."""
    sig = doc.signature
    lines = [f"domain {doc.name}", "fluents " + " ".join(sig.fluents)]
    user_actions = [a for a in sig.actions if a != NULL_ACTION]
    if user_actions:
        lines.append("actions " + " ".join(user_actions))
    for a in sorted(user_actions):
        for s in range(sig.num_states):
            row = doc.ts.successors(s, a)
            for d in sorted(row):
                # A lone self-loop is implicit; one beside other successors is not.
                if s == d and not doc.strict and len(row) == 1:
                    continue
                lines.append(
                    f"transition {a}: {format_state(sig, s)} -> {format_state(sig, d)}"
                )
    if doc.declared_deterministic:
        lines.append("deterministic")
    if doc.strict:
        lines.append("strict")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario files (.bevs).


@dataclass(frozen=True)
class ScenarioDoc:
    """An initial belief state and a normalized world view.

    ``weights`` is only set for explicit reliability weights, expanded to
    one level per normalized step (padded steps get level 0, which never
    matters because their observation is trivially true).
    """

    name: str
    initial: StateSet
    view: WorldView
    reliability: str = "recency"
    weights: tuple[int, ...] | None = None
    mode: str = "credulous"

    def reliability_fn(self) -> ReliabilityFunction:
        if self.reliability == "recency":
            return recency
        if self.reliability == "constant":
            return constant
        return fixed_weights(self.weights or ())


def _state_set_value(cur: _Cursor, sig: Signature) -> StateSet:
    """The rest of the line: ``states LITERAL`` or ``formula FORMULA``."""
    kind = cur.word()
    if kind == "states":
        out = cur.state_set_literal(sig)
    elif kind == "formula":
        out = models(_parse_formula(cur, sig), sig)
    else:
        raise cur.error("expected 'states' or 'formula'")
    cur.expect_end()
    return out


def parse_scenario(text: str, dom: DomainDoc) -> ScenarioDoc:
    """Parse a scenario file against an already-parsed domain.

    Steps are normalized into an equal-length world view: an ``obs`` with
    no pending ``act`` gets a noop action, an ``act`` followed by another
    ``act`` (or end of file) gets the trivially true observation.
    """
    sig = dom.signature
    full = universe(sig)
    name, lines = _named(text, "scenario")
    initial: StateSet | None = None
    # Steps as (action or None, observation or None) in file order.
    pending_act: str | None = None
    steps: list[tuple[str, StateSet, bool]] = []  # (action, obs, obs_is_user)
    reliability: str | None = None
    user_weights: tuple[int, ...] | None = None
    weights_line = 0
    mode: str | None = None
    seen: set[str] = set()

    for lineno, raw in lines:
        cur = _Cursor(raw, lineno)
        key = cur.directive("scenario", seen, ("initial", "reliability", "mode"))
        if key == "initial":
            initial = _state_set_value(cur, sig)
            if not initial:
                raise ParseError("the initial belief state may not be empty", cur.line, 1)
        elif key == "act":
            act = cur.known(sig.actions, "action")
            cur.expect_end()
            if pending_act is not None:
                steps.append((pending_act, full, False))
            pending_act = act
        elif key == "obs":
            steps.append((pending_act or NULL_ACTION, _state_set_value(cur, sig), True))
            pending_act = None
        elif key == "reliability":
            kind = cur.word()
            if kind in ("recency", "constant"):
                reliability = kind
                cur.expect_end()
            elif kind == "weights":
                reliability, weights_line = "weights", lineno
                user_weights = cur.items(cur.integer)
                if not user_weights:
                    raise cur.error("expected at least one weight")
            else:
                raise cur.error("expected 'recency', 'constant', or 'weights'")
        elif key == "mode":
            kind = cur.word()
            if kind not in ("credulous", "skeptical"):
                raise cur.error("expected 'credulous' or 'skeptical'")
            mode = kind
            cur.expect_end()
        else:
            raise cur.error(f"unknown directive {key!r}")

    if initial is None:
        raise ParseError("missing 'initial' directive", 1, 1)
    if pending_act is not None:
        steps.append((pending_act, full, False))
    if not steps:
        raise ParseError("a scenario needs at least one 'act' or 'obs' step", 1, 1)

    view = WorldView(
        tuple(a for a, _, _ in steps), tuple(o for _, o, _ in steps)
    )
    weights: tuple[int, ...] | None = None
    if user_weights is not None:
        n_user = sum(1 for _, _, is_user in steps if is_user)
        if len(user_weights) != n_user:
            raise ParseError(
                f"{len(user_weights)} weights for {n_user} observation steps",
                weights_line,
                1,
            )
        expanded = []
        it = iter(user_weights)
        for _, _, is_user in steps:
            expanded.append(next(it) if is_user else 0)
        weights = tuple(expanded)
    return ScenarioDoc(
        name,
        initial,
        view,
        reliability or "recency",
        weights,
        mode or "credulous",
    )


def serialize_scenario(doc: ScenarioDoc, sig: Signature) -> str:
    """Canonical text: every step fully explicit as an act/obs pair."""
    lines = [
        f"scenario {doc.name}",
        f"initial states {format_state_set(sig, doc.initial)}",
    ]
    for a, o in zip(doc.view.actions, doc.view.observations):
        lines.append(f"act {a}")
        lines.append(f"obs states {format_state_set(sig, o)}")
    if doc.reliability == "weights":
        lines.append(
            "reliability weights " + " ".join(str(w) for w in doc.weights or ())
        )
    else:
        lines.append(f"reliability {doc.reliability}")
    lines.append(f"mode {doc.mode}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Ranking files (.bevr).


@dataclass(frozen=True)
class RankingDoc:
    """A named faithful ranking over an explicit fluent list."""

    name: str
    signature: Signature
    ranking: Ranking


def parse_ranking(text: str) -> RankingDoc:
    """Parse a ranking file: fluents, a base belief state, one rank per state.

    Rank values only order the states: the strata are the distinct values,
    smallest first.  The ranking must be faithful to its base: base states
    share the unique smallest rank.
    """
    name, lines = _named(text, "ranking")
    sig: Signature | None = None
    base: StateSet | None = None
    base_line = 1
    ranks: dict[int, int] = {}
    seen: set[str] = set()

    for lineno, raw in lines:
        cur = _Cursor(raw, lineno)
        key = cur.directive("ranking", seen, ("fluents", "base"))
        if sig is None and key in ("base", "rank"):
            raise cur.error(f"'fluents' must come before {key!r}")
        if key == "fluents":
            sig = cur.signature(cur.items(cur.word), ())
        elif key == "base":
            base_line = cur.line
            base = cur.state_set_literal(sig)
            cur.expect_end()
            if not base:
                raise ParseError("the base belief state may not be empty", base_line, 1)
        elif key == "rank":
            state = cur.state_literal(sig)
            cur.expect(":")
            value = cur.integer()
            cur.expect_end()
            if value < 0:
                raise cur.error("ranks must be non-negative")
            if state in ranks:
                raise cur.error(
                    f"duplicate rank for state {format_state(sig, state)}"
                )
            ranks[state] = value
        else:
            raise cur.error(f"unknown directive {key!r}")

    if sig is None:
        raise ParseError("missing 'fluents' directive", 1, 1)
    if base is None:
        raise ParseError("missing 'base' directive", 1, 1)
    for s in range(sig.num_states):
        if s not in ranks:
            raise ParseError(
                f"no rank given for state {format_state(sig, s)}", 1, 1
            )
    strata: dict[int, list[int]] = {}
    for s, v in ranks.items():
        strata.setdefault(v, []).append(s)
    ranking = Ranking(tuple(_mask(strata[v]) for v in sorted(strata)))
    if ranking.base != base:
        raise ParseError(
            "ranking is not faithful: base states must share the unique "
            "smallest rank",
            base_line,
            1,
        )
    return RankingDoc(name, sig, ranking)


def serialize_ranking(doc: RankingDoc) -> str:
    sig = doc.signature
    lines = [
        f"ranking {doc.name}",
        "fluents " + " ".join(sig.fluents),
        f"base {format_state_set(sig, doc.ranking.base)}",
    ]
    for s in range(sig.num_states):
        lines.append(f"rank {format_state(sig, s)}: {doc.ranking.rank_of(s)}")
    return "\n".join(lines) + "\n"


def ranking_assignment(doc: RankingDoc) -> RankingAssignment:
    """Use a single loaded ranking as an assignment.

    Only the document's own base belief state can be revised; any other
    request is an error because the file carries no ranking for it.
    """

    def assign(kappa: StateSet) -> Ranking:
        if frozenset(kappa) != doc.ranking.base:
            raise ValueError(
                f"ranking {doc.name!r} is only faithful to its own base "
                "belief state"
            )
        return doc.ranking

    return assign


# ---------------------------------------------------------------------------
# Result serialization.


ResultLike = Union[EvolutionResult, BeliefTrajectory]


_JSON_KINDS = {dict: "an object", list: "a list", (bool, type(None)): "true, false or null"}


def _json_field(obj: dict, path: str, kind: type | tuple[type, ...]) -> Any:
    """The field at dotted ``path`` of a result document; must be a ``kind``."""
    key = path.rpartition(".")[2]
    if key not in obj:
        raise ValueError(f"result document: missing field {path}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ValueError(f"result document: field {path} must be {_JSON_KINDS[kind]}")
    return value


def _json_list(value: object, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"result document: field {field} must hold lists")
    return value


def _states_from_data(sig: Signature, data: object, field: str) -> StateSet:
    out = set()
    for names in _json_list(data, field):
        names = _json_list(names, field)
        try:
            out.add(state_index(sig, names))
        except ValueError as e:
            raise ValueError(f"result document: field {field} names {e}") from None
    return frozenset(out)


_escape = json.encoder.encode_basestring_ascii


def machine_text(doc: object) -> str:
    """The machine form of a document: stable, indented JSON and a newline.

    The bytes are those of ``json.dumps`` with an indent of 2, plus a
    newline; any indent would run its pure-Python encoder.  Strings are
    escaped in C, a list of strings is one join, and a list met again at
    the same depth is written once per call.  Documents are built of dicts
    with ``str`` keys, lists, tuples, strings, ints, bools and ``None``.
    Other values go to ``json.dumps``, which raises ``TypeError`` for a
    type it cannot write; a key that is not a ``str`` raises ``TypeError``
    too, where ``json.dumps`` would coerce it.
    """
    memo: dict[tuple[int, int], str] = {}

    def write(obj: object, pad: str) -> str:
        if isinstance(obj, str):
            return _escape(obj)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            key = (id(obj), len(pad))
            text = memo.get(key)
            if text is not None:
                return text
            inner = pad + "  "
            sep = ",\n" + inner
            body = None
            if isinstance(obj[0], str):
                try:
                    body = sep.join(map(_escape, obj))
                except TypeError:  # a later item is not a string
                    pass
            if body is None:
                body = sep.join([write(x, inner) for x in obj])
            # One f-string makes one copy of the body, where + makes several.
            text = memo[key] = f"[\n{inner}{body}\n{pad}]"
            return text
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            inner = pad + "  "
            items = []
            for k, v in obj.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                items.append(_escape(k) + ": " + write(v, inner))
            body = (",\n" + inner).join(items)
            return f"{{\n{inner}{body}\n{pad}}}"
        return json.dumps(obj)  # other scalars; TypeError for any other type

    text = write(doc, "") + "\n"
    # write refers to itself, so the memo would otherwise outlive the call
    # until the cycle collector runs.
    memo.clear()
    return text


def sequences_data(sig: Signature, seqs: Iterable[Iterable[StateSet]]) -> list:
    """Machine encoding of state-set sequences: repaired views, trajectories.

    Equal state sets share one list object, and so do equal states, so the
    document is read-only.
    """
    row = cache(list)  # one list per state: its tuple of true fluents
    data = cache(lambda k: [row(t) for t in _sorted_names(sig, k)])
    return [[data(k) for k in seq] for seq in seqs]


def repair_line(sig: Signature, i: int, obs: Iterable[StateSet]) -> str:
    """The text line for the i-th repaired view."""
    return f"repair {i}: " + " ; ".join(format_state_set(sig, o) for o in obs)


def result_to_data(
    res: ResultLike, sig: Signature, scenario: str = ""
) -> dict:
    """Self-describing machine document for an evolution outcome.

    Read-only: equal state sets share one list (``sequences_data``).
    """
    doc: dict = {"scenario": scenario, "signature": signature_data(sig)}
    if isinstance(res, EvolutionResult):
        doc["consistent"] = res.was_consistent
        doc["repairs"] = sequences_data(sig, res.repaired_views)
        doc["trajectories"] = sequences_data(sig, res.trajectories)
    else:
        doc["consistent"] = None
        doc["repairs"] = None
        doc["trajectories"] = sequences_data(sig, [res])
    return doc


def serialize_result(
    res: ResultLike, sig: Signature, fmt: str = "text", scenario: str = ""
) -> str:
    """Render an evolution outcome.

    Text mode prints ``kI = { ... }`` lines per trajectory, prefixed by a
    ``repair N:`` line when the view had to be repaired; machine mode is a
    stable JSON document.
    """
    if fmt == "machine":
        return machine_text(result_to_data(res, sig, scenario))
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(res, EvolutionResult):
        repaired = not res.was_consistent
        pairs = zip(res.repaired_views, res.trajectories)
    else:  # a plain trajectory is one block that no repair produced
        repaired, pairs = False, zip([()], [res])
    blocks = []
    for i, (obs, traj) in enumerate(pairs, start=1):
        lines = [repair_line(sig, i, obs)] if repaired else []
        lines += (f"k{j} = {format_state_set(sig, k)}" for j, k in enumerate(traj))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def result_from_json(text: str) -> tuple[Signature, ResultLike]:
    """Inverse of the machine format, for round-tripping results.

    A malformed document raises ``ValueError`` naming the missing, ill-typed
    or invalid field, or the unknown fluent.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("result document: nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ValueError("result document: the document must be an object")
    sig_doc = _json_field(doc, "signature", dict)
    fluents = _json_field(sig_doc, "signature.fluents", list)
    actions = _json_field(sig_doc, "signature.actions", list)
    try:
        sig = make_signature(fluents, actions)
    except ValueError as e:
        raise ValueError(f"result document: field signature: {e}") from None
    trajectories = tuple(
        tuple(_states_from_data(sig, k, "trajectories") for k in _json_list(t, "trajectories"))
        for t in _json_field(doc, "trajectories", list)
    )
    consistent = _json_field(doc, "consistent", (bool, type(None)))
    if consistent is None:
        if len(trajectories) != 1:
            raise ValueError(
                "result document: a plain trajectory needs exactly one entry in trajectories"
            )
        return sig, trajectories[0]
    repairs = tuple(
        tuple(_states_from_data(sig, o, "repairs") for o in _json_list(obs, "repairs"))
        for obs in _json_field(doc, "repairs", list)
    )
    return sig, EvolutionResult(consistent, repairs, trajectories)
