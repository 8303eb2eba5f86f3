"""Command-line front end.

Exit codes: 0 success, 1 any domain/scenario/usage error (diagnostic on
stderr, nothing on stdout), 2 a property suite found violations.  Identical
arguments, files, and seed always produce byte-identical machine output.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path
from typing import Callable, TypeVar

from .kernel import (
    Signature,
    StateSet,
    format_state_set,
    models,
    signature_data,
    states_data,
)
from .update import update_seq
from .revision import RankingAssignment, dalal_assignment, revise
from .evolution import evolve, evolve_skeptical, preimage, repairs
from .dsl import (
    DomainDoc,
    ParseError,
    machine_text,
    parse_domain,
    parse_formula,
    parse_ranking,
    parse_scenario,
    parse_state_set,
    ranking_assignment,
    repair_line,
    sequences_data,
    serialize_result,
)

_MAX_SHOWN_VIOLATIONS = 25

_T = TypeVar("_T")


class _ArgumentParser(argparse.ArgumentParser):
    # The documented error code for bad input is 1, not argparse's 2.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    p = _ArgumentParser(
        prog="bevo",
        description=(
            "Belief update, revision, and evolution over finite "
            "propositional transition systems."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="output as readable text or a stable JSON document",
        )

    sp = sub.add_parser("evolve", help="run a scenario through belief evolution")
    sp.add_argument("--domain", required=True, help="domain file (.bevd)")
    sp.add_argument("--scenario", required=True, help="scenario file (.bevs)")
    sp.add_argument(
        "--ranking",
        default="dalal",
        help="'dalal' (default) or a ranking file (.bevr)",
    )
    add_format(sp)

    sp = sub.add_parser("update", help="progress a belief state through actions")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--belief", required=True, help="state-set literal or formula")
    sp.add_argument("--actions", nargs="*", default=[], metavar="ACT")
    add_format(sp)

    sp = sub.add_parser("revise", help="revise a belief state by one observation")
    sp.add_argument("--domain", help="domain file supplying the fluents")
    sp.add_argument("--belief", required=True)
    sp.add_argument("--obs", required=True)
    sp.add_argument("--ranking", default="dalal")
    add_format(sp)

    sp = sub.add_parser("preimage", help="states from which the actions reach the observation")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--obs", required=True)
    sp.add_argument("--actions", nargs="*", default=[], metavar="ACT")
    add_format(sp)

    sp = sub.add_parser("repair", help="list the minimal repairs of a scenario")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--scenario", required=True)
    add_format(sp)

    sp = sub.add_parser("check", help="run a property suite over a small scope")
    sp.add_argument(
        "--suite",
        required=True,
        choices=("interaction", "agm", "dp", "lehmann", "i1i2"),
    )
    sp.add_argument("--fluents", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    add_format(sp)

    sp = sub.add_parser(
        "counterexample", help="reproduce a pinned counterexample instance"
    )
    sp.add_argument("which", choices=("lehmann",))
    add_format(sp)

    return p


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror or e}")


def _load(parse: Callable[..., _T], path: str, *context: object) -> _T:
    """Parse a file, its diagnostics prefixed with the path."""
    try:
        return parse(_read(path), *context)
    except ParseError as e:
        raise ValueError(f"{path}: {e}")


def _resolve_ranking(
    selector: str, dom: DomainDoc | None
) -> tuple[RankingAssignment, Signature]:
    """Turn a --ranking value into an assignment plus the signature to read
    states in: the domain's if there is one, else the ranking file's."""
    if selector == "dalal":
        if dom is None:
            raise ValueError(
                "a Hamming ranking needs --domain to supply the fluents"
            )
        return dalal_assignment(dom.signature), dom.signature
    doc = _load(parse_ranking, selector)
    if dom is not None and doc.signature.fluents != dom.signature.fluents:
        raise ValueError(
            f"ranking {selector}: fluents {list(doc.signature.fluents)} do not "
            f"match the domain's {list(dom.signature.fluents)}"
        )
    return ranking_assignment(doc), (doc if dom is None else dom).signature


def _parse_value_set(value: str, sig: Signature, what: str) -> StateSet:
    """A state-set literal if it starts with '{', otherwise a formula."""
    try:
        if value.lstrip().startswith("{"):
            return parse_state_set(value, sig)
        return models(parse_formula(value, sig), sig)
    except ParseError as e:
        raise ValueError(f"{what}: {e}")


def _render_set(sig: Signature, states: StateSet, fmt: str) -> str:
    if fmt == "machine":
        doc = {"signature": signature_data(sig), "result": states_data(sig, states)}
        return machine_text(doc)
    return format_state_set(sig, states) + "\n"


def _cmd_evolve(args: argparse.Namespace) -> tuple[str, int]:
    dom = _load(parse_domain, args.domain)
    sc = _load(parse_scenario, args.scenario, dom)
    assign, _ = _resolve_ranking(args.ranking, dom)
    run = evolve_skeptical if sc.mode == "skeptical" else evolve
    res = run(sc.initial, sc.view, dom.ts, assign, sc.reliability_fn())
    return serialize_result(res, dom.signature, args.format, sc.name), 0


def _cmd_update(args: argparse.Namespace) -> tuple[str, int]:
    dom = _load(parse_domain, args.domain)
    belief = _parse_value_set(args.belief, dom.signature, "--belief")
    out = update_seq(belief, tuple(args.actions), dom.ts)
    return _render_set(dom.signature, out, args.format), 0


def _cmd_revise(args: argparse.Namespace) -> tuple[str, int]:
    dom = _load(parse_domain, args.domain) if args.domain else None
    assign, sig = _resolve_ranking(args.ranking, dom)
    belief = _parse_value_set(args.belief, sig, "--belief")
    obs = _parse_value_set(args.obs, sig, "--obs")
    out = revise(belief, obs, assign)
    return _render_set(sig, out, args.format), 0


def _cmd_preimage(args: argparse.Namespace) -> tuple[str, int]:
    dom = _load(parse_domain, args.domain)
    obs = _parse_value_set(args.obs, dom.signature, "--obs")
    out = preimage(obs, tuple(args.actions), dom.ts)
    return _render_set(dom.signature, out, args.format), 0


def _cmd_repair(args: argparse.Namespace) -> tuple[str, int]:
    dom = _load(parse_domain, args.domain)
    sc = _load(parse_scenario, args.scenario, dom)
    reps = repairs(sc.view, dom.ts, sc.reliability_fn())
    # A consistent view is its own one repair; any other repair discards.
    ok = reps == (sc.view.observations,)
    sig = dom.signature
    if args.format == "machine":
        doc = {
            "scenario": sc.name,
            "signature": signature_data(sig),
            "consistent": ok,
            "repairs": sequences_data(sig, reps),
            "trajectories": None,
        }
        return machine_text(doc), 0
    lines = [f"consistent: {'yes' if ok else 'no'}"]
    lines += (repair_line(sig, i, obs) for i, obs in enumerate(reps, start=1))
    return "\n".join(lines) + "\n", 0


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("BEVO_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"BEVO_SEED is not an integer: {env!r}")


def _cmd_check(args: argparse.Namespace) -> tuple[str, int]:
    # Only check and counterexample use postulates; the other commands start
    # without compiling it.
    from .postulates import run_suite

    seed = _resolve_seed(args.seed)
    report = run_suite(args.suite, args.fluents, args.samples, seed)
    if args.format == "machine":
        out = machine_text(report.to_data())
    else:
        out = report.render_text(max_violations=_MAX_SHOWN_VIOLATIONS) + "\n"
    return out, (0 if report.passed else 2)


def _cmd_counterexample(args: argparse.Namespace) -> tuple[str, int]:
    from .postulates import lehmann_counterexample

    report = lehmann_counterexample()
    if set(report.failed) != {"L4", "L5", "L6"}:
        raise ValueError(
            f"counterexample reproduction drifted: failed={report.failed}"
        )
    if args.format == "machine":
        return machine_text(report.to_data()), 0
    return report.render_text() + "\n", 0


_COMMANDS = {
    "evolve": _cmd_evolve,
    "update": _cmd_update,
    "revise": _cmd_revise,
    "preimage": _cmd_preimage,
    "repair": _cmd_repair,
    "check": _cmd_check,
    "counterexample": _cmd_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        out, code = _COMMANDS[args.command](args)
    except (ValueError, OSError) as e:
        print(f"bevo: error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
