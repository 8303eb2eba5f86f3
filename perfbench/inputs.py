"""Seeded input generators for the three workloads.

Nothing here imports bevo: the generators build domains, scenarios and
queries from a seed, render them in bevo's text formats, and keep the
structured form (successor tables, formula trees, state sets) that the
definitional reference in ``reference.py`` evaluates independently.

Domain text is emitted in the canonical form that ``serialize_domain``
produces, so a parse/serialize round trip must give back the same bytes.
Op pools are stratified: the attributes that set an op's cost (fluent
count, |kappa|, view length, literal count, reliability, mode) are spread
over fixed quantiles and only shuffled and filled in by the seed, so two
seeds give pools of the same shape and runs on different seeds compare.
"""

from __future__ import annotations

import random
from itertools import product

from reference import Domain, format_state, format_state_set, models, predicate, view_consistent

ACTIONS = ("a0", "a1", "a2", "a3")
# Number of fluents each deterministic action sets (at most n - 1); the
# precondition fluent is never among them, so each action moves exactly
# 2^(n-1) * (1 - 2^-e) states and the file size does not depend on the seed.
EFFECT_SIZES = (1, 2, 2, 3)


def fluent_names(n: int) -> tuple[str, ...]:
    return tuple(f"f{i}" for i in range(n))


def domain_text(name, fluents, succ, deterministic) -> str:
    """Canonical domain text: sorted transitions, no self-loop lines."""
    lines = [f"domain {name}", "fluents " + " ".join(fluents)]
    lines.append("actions " + " ".join(sorted(succ)))
    for a in sorted(succ):
        for s, row in enumerate(succ[a]):
            for t in row:
                if t != s:
                    lines.append(
                        f"transition {a}: {format_state(fluents, s)} -> "
                        f"{format_state(fluents, t)}"
                    )
    if deterministic:
        lines.append("deterministic")
    return "\n".join(lines) + "\n"


def deterministic_domain(rng: random.Random, name: str, n: int) -> Domain:
    """Four STRIPS-like actions: one precondition literal, set effects."""
    fluents = fluent_names(n)
    succ = {}
    for a, e in zip(ACTIONS, EFFECT_SIZES):
        pre = rng.randrange(n)
        pre_val = rng.randrange(2)
        eff = rng.sample([k for k in range(n) if k != pre], min(e, n - 1))
        clear = sum(1 << k for k in eff)
        setv = sum(rng.randrange(2) << k for k in eff)
        succ[a] = [
            ((s & ~clear) | setv,) if (s >> pre & 1) == pre_val else (s,)
            for s in range(1 << n)
        ]
    return Domain(name, fluents, succ, True, domain_text(name, fluents, succ, True))


def nondeterministic_domain(rng: random.Random, name: str, n: int) -> Domain:
    """Four actions that, under a precondition literal, toggle one of two
    fluent sets nondeterministically.

    Toggling never yields a self-loop, so no explicit self-loop line is
    needed: ``serialize_domain`` drops such lines even when the source has
    another successor, which would not round-trip.
    """
    fluents = fluent_names(n)
    succ = {}
    for a in ACTIONS:
        pre = rng.randrange(n)
        pre_val = rng.randrange(2)
        others = [k for k in range(n) if k != pre]
        m1 = sum(1 << k for k in rng.sample(others, 1))
        m2 = sum(1 << k for k in rng.sample(others, min(2, len(others))))
        succ[a] = [
            tuple(sorted({s ^ m1, s ^ m2})) if (s >> pre & 1) == pre_val else (s,)
            for s in range(1 << n)
        ]
    return Domain(name, fluents, succ, False, domain_text(name, fluents, succ, False))


# ---------------------------------------------------------------------------
# Formulas, as trees (see ``reference.predicate``).


def render(f, fluents, nested: bool = False) -> str:
    tag = f[0]
    if tag == "lit":
        return ("" if f[2] else "!") + fluents[f[1]]
    if tag == "not":
        return "!(" + render(f[1], fluents) + ")"
    text = f"{render(f[1], fluents, True)} {tag} {render(f[2], fluents, True)}"
    return f"({text})" if nested else text


def conjunction(rng: random.Random, n: int, k: int, witness: int):
    """k literals over distinct fluents, all true at ``witness``."""
    lits = [("lit", v, bool(witness >> v & 1)) for v in sorted(rng.sample(range(n), k))]
    f = lits[0]
    for lit in lits[1:]:
        f = ("&", f, lit)
    return f


def mixed_formula(rng: random.Random, n: int, k: int, witness: int):
    """k literals joined by random connectives, made true at ``witness``."""
    lits = [("lit", v, rng.random() < 0.5) for v in rng.sample(range(n), k)]
    while len(lits) > 1:
        i = rng.randrange(len(lits) - 1)
        lits[i : i + 2] = [(rng.choice(("&", "|", "&", "->")), lits[i], lits[i + 1])]
    f = lits[0]
    return f if predicate(f)(witness) else ("not", f)


def observation(rng: random.Random, n: int, k: int, witness: int):
    if rng.random() < 0.6:
        return conjunction(rng, n, k, witness)
    return mixed_formula(rng, n, k, witness)


# ---------------------------------------------------------------------------
# Stratification helpers.


def spread(rng: random.Random, values, count: int) -> list:
    """``count`` items cycling through ``values`` in a seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def log_uniform_sizes(rng: random.Random, count: int, hi: int) -> list[int]:
    """One size per stratum of a log-uniform law on [1, hi], shuffled."""
    out = [
        max(1, min(hi, round(hi ** ((i + rng.random()) / count))))
        for i in range(count)
    ]
    rng.shuffle(out)
    return out


def run_states(dom: Domain, s0: int, actions) -> list[int]:
    """States visited after each action of a deterministic run from s0."""
    out, s = [], s0
    for a in actions:
        s = dom.next_state(a, s)
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# query-large: library calls on 12- and 14-fluent domains.

QUERY_KINDS = (
    ("evolve", "d12"),
    ("evolve", "d14"),
    ("evolve", "d14"),
    ("revise", "d12"),
    ("revise", "d14"),
    ("preimage", "d12"),
    ("preimage", "d14"),
    ("update", "n12"),
)


def query_domains(seed: int, scale: str = "full") -> dict[str, Domain]:
    rng = random.Random(f"query-domains/{seed}")
    sizes = {"full": (12, 14, 12), "tiny": (3, 4, 3)}[scale]
    return {
        "d12": deterministic_domain(rng, "qd12", sizes[0]),
        "d14": deterministic_domain(rng, "qd14", sizes[1]),
        "n12": nondeterministic_domain(rng, "qn12", sizes[2]),
    }


def query_pool(seed: int, domains: dict[str, Domain], scale: str = "full") -> list[dict]:
    """Stratified library-call ops; every view is consistent by construction.

    Each entry of QUERY_KINDS stands for the same number of ops.  Within each
    (kind, domain) group |kappa|, view length and literal count are spread
    over fixed strata, so the pool's total work hardly depends on the seed.
    """
    rng = random.Random(f"query-ops/{seed}")
    per_kind = {"full": 16, "tiny": 1}[scale]
    slots = []
    for kind, dname in sorted(set(QUERY_KINDS)):
        c = per_kind * QUERY_KINDS.count((kind, dname))
        sizes = log_uniform_sizes(rng, c, 64)
        lengths = spread(rng, (2, 3, 4, 5, 6), c)
        literals = spread(rng, (1, 2, 3, 4), c)
        as_formula = spread(rng, (True, False), c)
        slots += [(kind, dname, sizes[j], lengths[j], literals[j], as_formula[j]) for j in range(c)]
    rng.shuffle(slots)
    ops = []
    for i, (kind, dname, kappa_size, length, literals, as_formula) in enumerate(slots):
        dom = domains[dname]
        n, size = len(dom.fluents), dom.num_states
        kappa = sorted(rng.sample(range(size), min(kappa_size, size)))
        acts = [rng.choice(ACTIONS) for _ in range(length)]
        k = min(literals, n)
        op = {"kind": kind, "domain": dname, "kappa": kappa, "actions": acts}
        if kind == "evolve":
            visited = run_states(dom, rng.randrange(size), acts)
            obs = [observation(rng, n, (k + j) % k + 1, s) for j, s in enumerate(visited)]
            lines = [f"scenario q{i}", "initial states " + format_state_set(dom.fluents, kappa)]
            for a, f in zip(acts, obs):
                lines += [f"act {a}", "obs formula " + render(f, dom.fluents)]
            op.update(name=f"q{i}", observations=obs, text="\n".join(lines) + "\n")
        elif kind == "revise":
            op["alpha"] = observation(rng, n, k, rng.randrange(size))
            op["kappa_text"] = format_state_set(dom.fluents, kappa)
            op["alpha_text"] = render(op["alpha"], dom.fluents)
        elif kind == "preimage":
            final = run_states(dom, rng.randrange(size), acts)[-1]
            op["alpha"] = observation(rng, n, k, final)
            op["alpha_text"] = render(op["alpha"], dom.fluents)
        elif as_formula:  # update on the nondeterministic domain
            op["belief"] = conjunction(rng, n, max(1, n - 2 - k), rng.randrange(size))
            op["kappa_text"] = render(op["belief"], dom.fluents)
            op["kappa"] = None
        else:
            op["kappa_text"] = format_state_set(dom.fluents, kappa)
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# repair-conflict: CLI evolve/repair on long, mostly inconsistent views.

RELIABILITY_MIX = ("recency",) * 4 + ("constant", "weights")
MODE_MIX = ("credulous", "skeptical")
# Flipped literals per view: 0 keeps it consistent (a third of the views).
CONFLICTS = (0, 0, 1, 2, 3, 4)
REPAIR_LENGTHS = {"full": (8, 9, 10, 11, 12), "tiny": (8,)}


def repair_domains(seed: int, scale: str = "full") -> dict[str, Domain]:
    """Two domains of each size: a view's cost depends on the domain's
    random actions, and two of them halve that share of the seed-to-seed
    spread."""
    rng = random.Random(f"repair-domains/{seed}")
    sizes = {"full": (6, 8), "tiny": (2, 3)}[scale]
    return {
        f"d{n}{tag}": deterministic_domain(rng, f"rd{n}{tag}", n)
        for n in sizes
        for tag in "ab"
    }


def repair_pool(seed: int, domains: dict[str, Domain], scale: str = "full") -> list[dict]:
    """CLI ops, one per cell of view length x domain x command x conflicts.

    The cells fix the cost-setting mix; the seed picks the runs, the flipped
    literals, reliability and mode.  Inconsistent views start from a sampled
    run and flip one literal at 1-4 positions, and at more until the view is
    inconsistent, so a repair discards a few observations, as in a noisy
    sensor log.
    """
    rng = random.Random(f"repair-ops/{seed}")
    # Reliability is set by the cell, rotating over the conflict levels from
    # one (length, domain, command) group to the next, so every seed gives
    # the costly `constant` and `weights` views the same lengths and
    # conflict levels.
    groups = product(REPAIR_LENGTHS[scale], sorted(domains), ("evolve", "repair"))
    cells = [
        (*group, conflicts, RELIABILITY_MIX[(g + j) % len(RELIABILITY_MIX)])
        for g, group in enumerate(groups)
        for j, conflicts in enumerate(CONFLICTS)
    ]
    rng.shuffle(cells)
    modes = spread(rng, MODE_MIX, len(cells))
    ops = []
    for i, (length, dname, command, conflicts, rel) in enumerate(cells):
        dom = domains[dname]
        n, size = len(dom.fluents), dom.num_states
        acts = [rng.choice(ACTIONS) for _ in range(length)]
        visited = run_states(dom, rng.randrange(size), acts)
        obs = [conjunction(rng, n, rng.randint(1, min(2, n)), s) for s in visited]
        if conflicts:
            sets = [models(f, size) for f in obs]
            flips = conflicts
            while flips > 0 or view_consistent(dom, acts, sets):
                j = rng.randrange(len(obs))
                obs[j] = _flip_one(rng, obs[j])
                sets[j] = models(obs[j], size)
                flips -= 1
        kappa = sorted(rng.sample(range(size), rng.randint(1, 4)))
        weights = [rng.randrange(4) for _ in acts] if rel == "weights" else None
        lines = [f"scenario r{i}", "initial states " + format_state_set(dom.fluents, kappa)]
        for a, f in zip(acts, obs):
            lines += [f"act {a}", "obs formula " + render(f, dom.fluents)]
        lines.append(
            "reliability weights " + " ".join(map(str, weights))
            if weights
            else f"reliability {rel}"
        )
        lines.append(f"mode {modes[i]}")
        ops.append(
            {
                "kind": command,
                "domain": dname,
                "name": f"r{i}",
                "kappa": kappa,
                "actions": acts,
                "observations": obs,
                "reliability": rel,
                "weights": weights,
                "mode": modes[i],
                "text": "\n".join(lines) + "\n",
            }
        )
    return ops


def _flip_one(rng: random.Random, f):
    """Negate one literal of a conjunction."""
    if f[0] == "lit":
        return ("lit", f[1], not f[2])
    if rng.random() < 0.5:
        return ("&", _flip_one(rng, f[1]), f[2])
    return ("&", f[1], _flip_one(rng, f[2]))
