"""Definitional reference for every output the benchmark checks.

Written from the definitions, not from bevo's code, and importing nothing
from bevo:

* the models of a formula are the states where it evaluates to true;
* image and pre-image are set comprehensions over the state space;
* Dalal revision keeps the states of the observation at minimum Hamming
  distance from the beliefs, found by brute force;
* evolution revises the beliefs by the intersection of the per-observation
  pre-images and then takes images along the actions;
* repairs are the inclusion-maximal sets of retained positions whose
  pre-images intersect, found by brute force over all subsets, filtered by
  the reliability preference.

The render functions reproduce bevo's documented output formats byte for
byte, so a check compares whole outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

NULL_ACTION = "noop"


@dataclass
class Domain:
    """A generated domain: its text plus successor tables.

    ``succ[a][s]`` is the sorted tuple of successors of state ``s`` under
    action ``a``; the noop action is the identity and is not stored.
    """

    name: str
    fluents: tuple[str, ...]
    succ: dict[str, list[tuple[int, ...]]]
    deterministic: bool
    text: str

    @property
    def num_states(self) -> int:
        return 1 << len(self.fluents)

    def successors(self, a: str, s: int) -> tuple[int, ...]:
        return (s,) if a == NULL_ACTION else self.succ[a][s]

    def next_state(self, a: str, s: int) -> int:
        (t,) = self.successors(a, s)
        return t


def format_state(fluents: tuple[str, ...], s: int) -> str:
    return "{" + ",".join(f for k, f in enumerate(fluents) if s >> k & 1) + "}"


def format_state_set(fluents: tuple[str, ...], states) -> str:
    inner = ", ".join(format_state(fluents, s) for s in sorted(states))
    return "{ " + inner + " }" if inner else "{ }"


# ---------------------------------------------------------------------------
# Formulas are trees: ("lit", k, positive) | ("not", f) | (op, f, g) with op
# one of "&", "|", "->".


def predicate(f):
    """The formula as a function from a state to its truth value."""
    return eval("lambda s: " + _expr(f))  # noqa: S307 - generated from a tree


def models(f, num_states: int) -> frozenset[int]:
    pred = predicate(f)
    return frozenset(s for s in range(num_states) if pred(s))


def _expr(f) -> str:
    tag = f[0]
    if tag == "lit":
        return f"((s >> {f[1]}) & 1 == {int(f[2])})"
    if tag == "not":
        return f"(not {_expr(f[1])})"
    left, right = _expr(f[1]), _expr(f[2])
    if tag == "&":
        return f"({left} and {right})"
    if tag == "|":
        return f"({left} or {right})"
    return f"((not {left}) or {right})"


def image(dom: Domain, states, action: str) -> frozenset[int]:
    return frozenset(t for s in states for t in dom.successors(action, s))


def image_seq(dom: Domain, states, actions) -> frozenset[int]:
    out = frozenset(states)
    for a in actions:
        out = image(dom, out, a)
    return out


def end_states(dom: Domain, actions) -> list[list[int]]:
    """``out[i][s]``: where the deterministic run from s is after step i."""
    cur = list(range(dom.num_states))
    out = []
    for a in actions:
        cur = [dom.next_state(a, p) for p in cur]
        out.append(cur)
    return out


def preimage(dom: Domain, alpha, actions) -> frozenset[int]:
    if not actions:
        return frozenset(alpha)
    final = end_states(dom, actions)[-1]
    return frozenset(s for s in range(dom.num_states) if final[s] in alpha)


def observation_preimages(dom: Domain, actions, obs_sets) -> list[frozenset[int]]:
    """Pre-image of observation i through the first i+1 actions."""
    return [
        frozenset(s for s in range(dom.num_states) if at[s] in o)
        for at, o in zip(end_states(dom, actions), obs_sets)
    ]


def dalal_revise(kappa, alpha) -> frozenset[int]:
    if not alpha:
        return frozenset()
    dist = {s: min(bin(s ^ b).count("1") for b in kappa) for s in alpha}
    best = min(dist.values())
    return frozenset(s for s, d in dist.items() if d == best)


def intersect(sets, universe: frozenset[int]) -> frozenset[int]:
    out = universe
    for x in sets:
        out = out & x
    return out


def view_consistent(dom: Domain, actions, obs_sets) -> bool:
    pres = observation_preimages(dom, actions, obs_sets)
    return bool(intersect(pres, frozenset(range(dom.num_states))))


# ---------------------------------------------------------------------------
# Repairs.


def reliability_levels(kind: str, n: int, weights=None) -> list[int]:
    """Lower is more reliable: recency prefers later positions."""
    if kind == "recency":
        return [-(i + 1) for i in range(n)]
    if kind == "constant":
        return [0] * n
    return list(weights)


def repair_sets(pres, obs_sets, num_states: int, levels) -> list[frozenset[int]]:
    """Retained-position sets of the repairs, by brute force."""
    full = frozenset(range(num_states))
    lattice = [i for i, o in enumerate(obs_sets) if len(o) != num_states]

    def ok(kept) -> bool:
        return bool(intersect((pres[i] for i in kept), full))

    subsets = [
        frozenset(c) for k in range(len(lattice) + 1) for c in combinations(lattice, k)
    ]
    candidates = [
        kept
        for kept in subsets
        if ok(kept) and not any(ok(kept | {j}) for j in lattice if j not in kept)
    ]

    def beats(a, b) -> bool:
        for lev in sorted({levels[i] for i in lattice}):
            at = {i for i in lattice if levels[i] == lev}
            if a & at != b & at:
                return (b & at) < (a & at)
        return False

    return [k for k in candidates if not any(beats(o, k) for o in candidates if o != k)]


def weakened(obs_sets, kept, num_states: int) -> tuple[frozenset[int], ...]:
    full = frozenset(range(num_states))
    return tuple(
        o if i in kept or len(o) == num_states else full for i, o in enumerate(obs_sets)
    )


def _sort_key(obs_sets):
    return tuple(tuple(sorted(o)) for o in obs_sets)


# ---------------------------------------------------------------------------
# Whole operations, rendered the way bevo renders them.


def states_data(fluents, states) -> list[list[str]]:
    return [[f for k, f in enumerate(fluents) if s >> k & 1] for s in sorted(states)]


def _signature(dom: Domain) -> dict:
    return {"fluents": list(dom.fluents), "actions": sorted(dom.succ)}


def trajectory(dom: Domain, start, actions) -> list[frozenset[int]]:
    out = [frozenset(start)]
    for a in actions:
        out.append(image(dom, out[-1], a))
    return out


def evolve_sets(dom: Domain, kappa, actions, obs_sets, levels):
    """(consistent, repaired views, trajectories) of credulous evolution."""
    n = dom.num_states
    pres = observation_preimages(dom, actions, obs_sets)
    full = frozenset(range(n))
    core = intersect(pres, full)
    if core:
        views = [tuple(obs_sets)]
        cores = [core]
    else:
        pairs = sorted(
            ((weakened(obs_sets, k, n), k) for k in repair_sets(pres, obs_sets, n, levels)),
            key=lambda p: _sort_key(p[0]),
        )
        views = [v for v, _ in pairs]
        cores = [intersect((pres[i] for i in k), full) for _, k in pairs]
    trajs = [trajectory(dom, dalal_revise(kappa, c), actions) for c in cores]
    return bool(core), views, trajs


def evolution(dom: Domain, op: dict):
    """``evolve_sets`` for a generated scenario op."""
    obs_sets = [models(f, dom.num_states) for f in op["observations"]]
    levels = reliability_levels(
        op.get("reliability", "recency"), len(obs_sets), op.get("weights")
    )
    return evolve_sets(dom, op["kappa"], op["actions"], obs_sets, levels)


def render_text_result(dom: Domain, consistent: bool, views, trajs) -> str:
    blocks = []
    for i, (view, traj) in enumerate(zip(views, trajs), start=1):
        lines = []
        if not consistent:
            lines.append(
                f"repair {i}: " + " ; ".join(format_state_set(dom.fluents, o) for o in view)
            )
        lines += [f"k{j} = {format_state_set(dom.fluents, k)}" for j, k in enumerate(traj)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def cli_output(dom: Domain, op: dict, consistent: bool, views, trajs) -> str:
    """Expected stdout of ``bevo evolve|repair --format machine``, given
    the op's ``evolution``."""
    doc = {"scenario": op["name"], "signature": _signature(dom)}
    if op["kind"] == "repair":
        doc["consistent"] = consistent
        doc["repairs"] = [[states_data(dom.fluents, o) for o in v] for v in views]
        doc["trajectories"] = None
    elif op["mode"] == "skeptical":
        start = frozenset().union(*(t[0] for t in trajs))
        doc["consistent"] = None
        doc["repairs"] = None
        doc["trajectories"] = [
            [states_data(dom.fluents, k) for k in trajectory(dom, start, op["actions"])]
        ]
    else:
        doc["consistent"] = consistent
        doc["repairs"] = [[states_data(dom.fluents, o) for o in v] for v in views]
        doc["trajectories"] = [[states_data(dom.fluents, k) for k in t] for t in trajs]
    return json.dumps(doc, indent=2) + "\n"


def query_output(dom: Domain, op: dict) -> str:
    """Expected output of a query-large op."""
    n = dom.num_states
    kind = op["kind"]
    if kind == "evolve":
        consistent, views, trajs = evolution(dom, op)
        return render_text_result(dom, consistent, views, trajs)
    if kind == "revise":
        out = dalal_revise(op["kappa"], models(op["alpha"], n))
    elif kind == "preimage":
        out = preimage(dom, models(op["alpha"], n), op["actions"])
    else:
        start = op["kappa"] if op["kappa"] is not None else models(op["belief"], n)
        out = image_seq(dom, start, op["actions"])
    return format_state_set(dom.fluents, out) + "\n"
