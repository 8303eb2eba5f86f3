"""The tracer wraps every name a function is reachable by, and unwraps it."""

import contextlib
import io
import json
from pathlib import Path

import bevo
import bevo.cli
import bevo.evolution
from metrics import END_TO_END, per_layer_units
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent.parent


def test_install_wraps_imported_names_and_uninstall_restores():
    original = bevo.evolution.evolve
    tracer = Tracer(keep_spans=True)
    tracer.install()
    try:
        assert bevo.evolution.evolve is not original
        assert bevo.cli.evolve is bevo.evolution.evolve is bevo.evolve
        assert bevo.kernel.true_fluents.__module__ == "bevo.kernel"
    finally:
        tracer.uninstall()
    assert bevo.evolution.evolve is original is bevo.cli.evolve is bevo.evolve


def test_spans_and_self_time_of_a_cli_run():
    tracer = Tracer(keep_spans=True)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = bevo.cli.main([
                "evolve", "--domain", str(ROOT / "data" / "litmus.bevd"),
                "--scenario", str(ROOT / "data" / "litmus-conflict.bevs"), "--format", "machine",
            ])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["evolution.minimal_repair_candidates"] == 1
    assert ("evolution.evolve", "cli.main") in tracer.edges
    assert ("evolution.repairs", "evolution.evolve") in tracer.edges
    (root,) = [s for s in tracer.spans if s[3] == -1]
    assert root[0] == "cli.main"
    for name, start, end, parent in tracer.spans:
        assert start <= end
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2]
    total = root[2] - root[1]
    assert 0 < sum(tracer.self_s.values()) <= total
    assert tracer.stats["evolution.minimal_repair_candidates.out_size"] == 2


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == ["repair-conflict", "suites"]
