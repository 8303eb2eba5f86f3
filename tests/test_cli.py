import json
import subprocess
import sys

import pytest

import bevo.cli
from bevo import format_state_set, parse_domain
from bevo.cli import main
from bevo.postulates import Instance, SuiteReport, Violation, suite_signature

from conftest import DATA

_DOMAIN = str(DATA / "litmus.bevd")
_EXT_DOMAIN = str(DATA / "litmus-extended.bevd")
_SCENARIO = str(DATA / "litmus.bevs")
_EXT_SCENARIO = str(DATA / "litmus-extended.bevs")
_CONFLICT = str(DATA / "litmus-conflict.bevs")
_RANKING = str(DATA / "litmus.bevr")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if code == 0 and "machine" in argv:
        # machine output is a fixed point of the standard JSON encoder
        out = captured.out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    return code, captured.out, captured.err


def test_evolve_text_golden(capsys):
    code, out, err = _run(
        capsys, "evolve", "--domain", _DOMAIN, "--scenario", _SCENARIO
    )
    assert code == 0
    assert err == ""
    assert out == "k0 = { {Acid} }\nk1 = { {Red,Acid} }\n"


def test_evolve_machine_golden(capsys):
    code, out, err = _run(
        capsys,
        "evolve", "--domain", _DOMAIN, "--scenario", _SCENARIO,
        "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "litmus_dip"
    assert doc["consistent"] is True
    assert doc["trajectories"] == [[[["Acid"]], [["Red", "Acid"]]]]
    code2, out2, _ = _run(
        capsys,
        "evolve", "--domain", _DOMAIN, "--scenario", _SCENARIO,
        "--format", "machine",
    )
    assert (code2, out2) == (0, out)


def test_evolve_extended_domain(capsys):
    code, out, _ = _run(
        capsys, "evolve", "--domain", _EXT_DOMAIN, "--scenario", _EXT_SCENARIO
    )
    assert code == 0
    assert out == "k0 = { {}, {Acid} }\nk1 = { {}, {Acid} }\n"


def test_evolve_with_ranking_file(capsys):
    code, out, _ = _run(
        capsys,
        "evolve", "--domain", _DOMAIN, "--scenario", _SCENARIO,
        "--ranking", _RANKING,
    )
    # the bundled ranking is faithful to the scenario's initial state and
    # happens to agree with the Hamming choice here
    assert code == 0
    assert out == "k0 = { {Acid} }\nk1 = { {Red,Acid} }\n"


def test_evolve_skeptical_mode(capsys, tmp_path):
    sc = tmp_path / "conflict.bevs"
    sc.write_text(
        "scenario merged\ninitial states { {}, {Acid} }\n"
        "obs formula Acid\nobs formula !Acid\n"
        "reliability constant\nmode skeptical\n"
    )
    code, out, _ = _run(capsys, "evolve", "--domain", _DOMAIN, "--scenario", str(sc))
    assert code == 0
    assert out == (
        "k0 = { {}, {Acid} }\nk1 = { {}, {Acid} }\nk2 = { {}, {Acid} }\n"
    )


def test_update_golden(capsys):
    code, out, err = _run(
        capsys,
        "update", "--domain", _DOMAIN,
        "--belief", "{ {}, {Acid} }", "--actions", "dip",
    )
    assert (code, err) == (0, "")
    assert out == "{ {Blue}, {Red,Acid} }\n"


def test_update_formula_belief_and_machine(capsys):
    code, out, _ = _run(
        capsys,
        "update", "--domain", _DOMAIN,
        "--belief", "!Red & !Blue & !Acid", "--actions", "dip",
        "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == [["Blue"]]
    assert doc["signature"]["actions"] == ["dip"]


def test_update_unknown_action(capsys):
    code, out, err = _run(
        capsys,
        "update", "--domain", _DOMAIN, "--belief", "{ {} }", "--actions", "pour",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("bevo: error:")
    assert "pour" in err


def test_update_unknown_action_on_an_empty_belief(capsys):
    code, out, err = _run(
        capsys,
        "update", "--domain", _DOMAIN, "--belief", "{ }", "--actions", "dip", "pour",
    )
    assert (code, out, err) == (1, "", "bevo: error: unknown action 'pour'\n")


def test_preimage_reports_nondeterminism_before_unknown_actions(capsys, tmp_path):
    nondet = tmp_path / "nondet.bevd"
    nondet.write_text(
        "domain n\nfluents p\nactions a\n"
        "transition a: {} -> {p}\ntransition a: {} -> {}\n"
    )
    code, out, err = _run(
        capsys, "preimage", "--domain", str(nondet), "--obs", "p", "--actions", "pour",
    )
    assert (code, out) == (1, "")
    assert err == (
        "bevo: error: this operation requires a deterministic transition system\n"
    )


def test_revise_dalal_golden(capsys):
    code, out, _ = _run(
        capsys,
        "revise", "--domain", _DOMAIN,
        "--belief", "{ {Blue}, {Red,Acid} }", "--obs", "Red",
    )
    assert code == 0
    assert out == "{ {Red,Acid} }\n"


def test_revise_with_ranking_file_no_domain(capsys):
    code, out, _ = _run(
        capsys,
        "revise", "--ranking", _RANKING,
        "--belief", "{ {}, {Acid} }", "--obs", "Blue | Red",
    )
    assert code == 0
    assert out == "{ {Blue}, {Red,Acid}, {Blue,Acid} }\n"


def test_revise_dalal_requires_domain(capsys):
    code, out, err = _run(
        capsys, "revise", "--belief", "{ {} }", "--obs", "{ {} }"
    )
    assert code == 1
    assert out == ""
    assert "--domain" in err


def test_revise_ranking_fluent_mismatch(capsys):
    code, _, err = _run(
        capsys,
        "revise", "--domain", _EXT_DOMAIN, "--ranking", _RANKING,
        "--belief", "{ {} }", "--obs", "{ {} }",
    )
    assert code == 1
    assert "do not match" in err


def test_revise_ranking_file_wrong_base(capsys):
    code, _, err = _run(
        capsys,
        "revise", "--ranking", _RANKING, "--belief", "{ {} }", "--obs", "Red",
    )
    assert code == 1
    assert "base" in err


def test_preimage_golden(capsys):
    code, out, _ = _run(
        capsys,
        "preimage", "--domain", _DOMAIN, "--obs", "Red", "--actions", "dip",
    )
    assert code == 0
    assert out == "{ {Red}, {Red,Blue}, {Acid}, {Red,Acid}, {Red,Blue,Acid} }\n"


def test_repair_conflict_text(capsys):
    dom = parse_domain((DATA / "litmus.bevd").read_text())
    sig = dom.signature
    full = format_state_set(sig, frozenset(range(8)))
    acid = format_state_set(sig, frozenset((4, 5, 6, 7)))
    not_acid = format_state_set(sig, frozenset((0, 1, 2, 3)))
    code, out, _ = _run(
        capsys, "repair", "--domain", _DOMAIN, "--scenario", _CONFLICT
    )
    assert code == 0
    assert out.splitlines() == [
        "consistent: no",
        f"repair 1: {full} ; {not_acid}",
        f"repair 2: {acid} ; {full}",
    ]


def test_repair_conflict_machine(capsys):
    code, out, _ = _run(
        capsys,
        "repair", "--domain", _DOMAIN, "--scenario", _CONFLICT,
        "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["consistent"] is False
    assert doc["trajectories"] is None
    assert len(doc["repairs"]) == 2


def test_repair_consistent_scenario(capsys):
    code, out, _ = _run(
        capsys, "repair", "--domain", _DOMAIN, "--scenario", _SCENARIO
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "consistent: yes"
    assert len(lines) == 2 and lines[1].startswith("repair 1: ")


def test_repair_constant_past_twenty_observations(capsys, tmp_path):
    """Twenty-one alternating tied observations: keep the even or the odd ones."""
    scenario = tmp_path / "long.bevs"
    lines = ["scenario long", "initial states { {} }"]
    for i in range(21):
        lines += ["act noop", "obs formula " + ("Acid" if i % 2 else "!Acid")]
    lines.append("reliability constant")
    scenario.write_text("\n".join(lines) + "\n")
    code, out, err = _run(
        capsys, "repair", "--domain", _DOMAIN, "--scenario", str(scenario)
    )
    sig = parse_domain((DATA / "litmus.bevd").read_text()).signature
    full = format_state_set(sig, frozenset(range(8)))
    kept = [format_state_set(sig, frozenset(range(4 * j, 4 * j + 4))) for j in (0, 1)]
    assert (code, err) == (0, "")
    assert out.splitlines() == ["consistent: no"] + [
        f"repair {j + 1}: " + " ; ".join(kept[j] if i % 2 == j else full for i in range(21))
        for j in (0, 1)
    ]


def test_check_agm_text(capsys):
    code, out, err = _run(capsys, "check", "--suite", "agm", "--fluents", "2")
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == (
        "suite=agm scope=[exhaustive fluents=2 pairs] instances=240 violations=0"
    )


def test_check_machine(capsys):
    code, out, _ = _run(
        capsys,
        "check", "--suite", "dp", "--fluents", "3", "--samples", "40",
        "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["instances"] == 40


def test_check_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("BEVO_SEED", "123")
    code, out, _ = _run(
        capsys, "check", "--suite", "dp", "--fluents", "3", "--samples", "30"
    )
    assert code == 0
    assert "seed=123" in out
    # an explicit flag wins over the environment
    code, out, _ = _run(
        capsys,
        "check", "--suite", "dp", "--fluents", "3", "--samples", "30",
        "--seed", "7",
    )
    assert "seed=7" in out


def test_check_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("BEVO_SEED", "lots")
    code, out, err = _run(
        capsys, "check", "--suite", "dp", "--fluents", "3", "--samples", "30"
    )
    assert code == 1
    assert out == ""
    assert "BEVO_SEED" in err


def test_check_scope_cap_is_an_error(capsys):
    code, _, err = _run(capsys, "check", "--suite", "agm", "--fluents", "4")
    assert code == 1
    assert "capped" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--suite", "agm", "--fluents", "0"], "fluents, got 0"),
        (["--suite", "dp", "--fluents", "-1", "--samples", "3"], "fluents, got -1"),
        (["--suite", "lehmann", "--fluents", "6", "--samples", "3"], "fluents, got 6"),
        (["--suite", "dp", "--samples", "0"], "at least 1, got 0"),
        (["--suite", "lehmann", "--samples", "-3"], "at least 1, got -3"),
        (["--suite", "interaction", "--fluents", "1", "--samples", "0"], "got 0"),
        (["--suite", "i1i2", "--samples", "-1"], "got -1"),
        (["--suite", "agm", "--samples", "5"], "no sampled mode"),
    ],
)
def test_check_out_of_range_scope_is_an_error(capsys, argv, reason):
    code, out, err = _run(capsys, "check", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("bevo: error: ") and reason in err
    assert "Traceback" not in err


def test_check_exit_two_and_violation_cap(capsys, monkeypatch):
    sig = suite_signature(1)
    inst = Instance(sig, None, frozenset((0,)))
    vio = Violation("P1", inst, frozenset((0,)), frozenset((1,)))

    def fake(name, fluents, samples, seed):
        return SuiteReport("interaction", "stub", 30, (vio,) * 30)

    monkeypatch.setattr("bevo.postulates.run_suite", fake)
    code, out, err = _run(capsys, "check", "--suite", "interaction")
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert lines[0].endswith("violations=30")
    assert lines[-1] == "... and 5 more violations"
    assert sum(1 for ln in lines if ln.startswith("P1:")) == 25


def test_counterexample_text(capsys):
    code, out, err = _run(capsys, "counterexample", "lehmann")
    assert (code, err) == (0, "")
    assert "after O: { {q} }" in out
    assert "failed: L4 L5 L6" in out
    assert "held: L2 L3 L4* L5* L6* L7" in out


def test_counterexample_machine(capsys):
    code, out, _ = _run(capsys, "counterexample", "lehmann", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == ["L4", "L5", "L6"]
    assert doc["values"]["O"] == [["q"]]


_MACHINE_COMMANDS = {
    "evolve-repaired": ["evolve", "--domain", _DOMAIN, "--scenario", _CONFLICT],
    "revise-dalal": [
        "revise", "--domain", _DOMAIN, "--belief", "{ {Blue}, {Red,Acid} }", "--obs", "Red",
    ],
    "revise-ranking": [
        "revise", "--ranking", _RANKING, "--belief", "{ {}, {Acid} }", "--obs", "Blue | Red",
    ],
    "preimage": ["preimage", "--domain", _DOMAIN, "--obs", "Red", "--actions", "dip"],
    "check-agm": ["check", "--suite", "agm", "--fluents", "2"],
    "check-lehmann": ["check", "--suite", "lehmann", "--fluents", "2", "--samples", "5"],
    "check-i1i2": ["check", "--suite", "i1i2", "--fluents", "2", "--samples", "5"],
    "check-interaction": [
        "check", "--suite", "interaction", "--fluents", "2", "--samples", "5",
    ],
}


@pytest.mark.parametrize("argv", _MACHINE_COMMANDS.values(), ids=_MACHINE_COMMANDS)
def test_machine_output_is_indented_json(capsys, argv):
    code, out, _ = _run(capsys, *argv, "--format", "machine")
    assert code == 0
    assert out.startswith("{\n")


def test_missing_file_is_a_clean_error(capsys):
    code, out, err = _run(
        capsys, "evolve", "--domain", "nowhere.bevd", "--scenario", _SCENARIO
    )
    assert code == 1
    assert out == ""
    assert err.startswith("bevo: error: nowhere.bevd")


@pytest.mark.parametrize("bad_option", ["--domain", "--scenario"])
def test_undecodable_file_names_the_file(capsys, tmp_path, bad_option):
    bad = tmp_path / "bad.bev"
    bad.write_bytes(b"domain d\nfluents p\n\xff\n")
    files = {"--domain": _DOMAIN, "--scenario": _SCENARIO, bad_option: str(bad)}
    code, out, err = _run(capsys, "evolve", *(x for kv in files.items() for x in kv))
    assert (code, out) == (1, "")
    assert err == (
        f"bevo: error: {bad}: 'utf-8' codec can't decode byte 0xff in "
        "position 19: invalid start byte\n"
    )


def test_malformed_domain_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.bevd"
    bad.write_text("domain d\nfluents p\ntransition a: {} -> {p}\n")
    code, out, err = _run(
        capsys, "evolve", "--domain", str(bad), "--scenario", _SCENARIO
    )
    assert code == 1
    assert "line 3" in err


def test_repeated_fluent_is_a_located_error(capsys, tmp_path):
    bad = tmp_path / "d.bevd"
    bad.write_text("domain d\nfluents p p\n")
    code, out, err = _run(capsys, "update", "--domain", str(bad), "--belief", "{ {} }")
    assert (code, out) == (1, "")
    assert err == f"bevo: error: {bad}: line 2, col 12: duplicate fluent names\n"


def test_overlong_integer_is_a_located_error(capsys, tmp_path):
    scenario = tmp_path / "long.bevs"
    text = (DATA / "litmus-conflict.bevs").read_text()
    weights = "reliability weights 1 " + "2" * 5000
    scenario.write_text(text.replace("reliability constant", weights))
    code, out, err = _run(
        capsys, "evolve", "--domain", _DOMAIN, "--scenario", str(scenario)
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"bevo: error: {scenario}: line 8, col 23: ")
    assert "integer too long (5000 digits)" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["evolve", "--domain", _DOMAIN])
    assert e.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "bevo",
            "update", "--domain", _DOMAIN,
            "--belief", "{ {Acid} }", "--actions", "dip",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "{ {Red,Acid} }\n"


@pytest.mark.parametrize(
    "obs",
    [
        "(" * 200 + "Acid" + ")" * 200,
        " & ".join(["Acid"] * 1500),
        " -> ".join(["Acid"] * 1500),
        "!" * 3000 + "Acid",
    ],
    ids=["parentheses", "and-chain", "arrow-chain", "negations"],
)
def test_deep_formula_is_a_located_error(capsys, obs):
    code, out, err = _run(
        capsys, "revise", "--domain", _DOMAIN, "--belief", "{ {} }", "--obs", obs
    )
    assert code == 1
    assert out == ""
    assert err.startswith("bevo: error: --obs: line 1, col ")
    assert f"nested more than {bevo.dsl.MAX_FORMULA_DEPTH} levels deep" in err


def test_formula_at_the_depth_bound_is_accepted(capsys):
    depth = bevo.dsl.MAX_FORMULA_DEPTH
    obs = "(" * depth + "Acid" + ")" * depth
    code, out, _ = _run(
        capsys, "revise", "--domain", _DOMAIN, "--belief", "{ {} }", "--obs", obs
    )
    assert (code, out) == (0, "{ {Acid} }\n")


def test_postulates_is_imported_by_the_commands_that_use_it_only():
    probe = (
        "import sys\n"
        "import bevo.cli\n"
        "print('bevo.postulates' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_argument_parser_is_built_on_first_use_only():
    probe = (
        "import bevo.cli as c\n"
        "print(c._parser.cache_info().currsize)\n"
        "c.main(['counterexample', 'lehmann'])\n"
        "c.main(['counterexample', 'lehmann'])\n"
        "print(c._parser.cache_info().misses)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("0", "1")
