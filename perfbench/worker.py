"""One measurement in a fresh interpreter: set-up, timed loop, traced replay.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints one JSON object as its last stdout line.  The inputs were written
beforehand by ``run.py``; reading them happens before the set-up clock
starts, so generating and loading inputs is not counted.

Usage: python3 worker.py --inputs DIR --seconds S [--trace 0|1]
       [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from metrics import layer_values, p50_p90, weighted_quantile

clock = time.perf_counter


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> str:
    """``bevo.cli.main`` in-process with stdout captured; raises on exit != 0."""
    import bevo.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bevo.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()[:300]}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# query-large: the library call path.  Names are looked up on the ``bevo``
# module at call time so that the tracer's wrappers are seen.


class QueryLarge:
    keep_spans = True

    def __init__(self, manifest: dict, inputs: Path):
        self.ops = manifest["ops"]
        self.texts = {k: (inputs / f).read_text() for k, f in manifest["domains"].items()}

    def setup(self) -> list[str]:
        import bevo

        failures = []
        self.docs = {}
        for name, text in self.texts.items():
            doc = bevo.parse_domain(text)
            if bevo.serialize_domain(doc) != text:
                failures.append(f"domain {name} does not round-trip")
            self.docs[name] = doc
        return failures

    def run(self, op: dict) -> str:
        import bevo

        dom = self.docs[op["domain"]]
        sig = dom.signature
        kind = op["kind"]
        if kind == "evolve":
            sc = bevo.parse_scenario(op["text"], dom)
            res = bevo.evolve(
                sc.initial, sc.view, dom.ts, bevo.dalal_assignment(sig), sc.reliability_fn()
            )
            return bevo.serialize_result(res, sig, "text", sc.name)
        if kind == "revise":
            kappa = bevo.parse_state_set(op["kappa_text"], sig)
            alpha = bevo.models(bevo.parse_formula(op["alpha_text"], sig), sig)
            out = bevo.revise(kappa, alpha, bevo.dalal_assignment(sig))
        elif kind == "preimage":
            alpha = bevo.models(bevo.parse_formula(op["alpha_text"], sig), sig)
            out = bevo.preimage(alpha, tuple(op["actions"]), dom.ts)
        else:
            text = op["kappa_text"]
            if text.startswith("{"):
                kappa = bevo.parse_state_set(text, sig)
            else:
                kappa = bevo.models(bevo.parse_formula(text, sig), sig)
            out = bevo.update_seq(kappa, tuple(op["actions"]), dom.ts)
        return bevo.format_state_set(sig, out) + "\n"


class RepairConflict:
    """In-process ``bevo evolve|repair --format machine``."""

    keep_spans = True

    def __init__(self, manifest: dict, inputs: Path):
        self.argvs = [
            [
                op["kind"],
                "--domain",
                str(inputs / manifest["domains"][op["domain"]]),
                "--scenario",
                str(inputs / op["file"]),
                "--format",
                "machine",
            ]
            for op in manifest["ops"]
        ]
        self.ops = list(range(len(self.argvs)))

    def setup(self) -> list[str]:
        import bevo  # noqa: F401
        import bevo.cli  # noqa: F401

        return []

    def run(self, op: int) -> str:
        return run_cli(self.argvs[op])


def timed_ops(wl, seconds: float, limit: int | None = None) -> dict:
    """Closed loop over the op pool, one op at a time.

    Runs whole passes over the pool, at least one, until ``seconds`` of op
    time are done, so every run has the same op mix (or exactly ``limit``
    ops when replaying).  Only the op calls are timed; hashing
    the outputs between ops is the harness's own work.

    A shared machine's speed drifts by a fifth and more over seconds to
    tens of seconds, so every figure is taken over the whole run rather
    than over a pass or an op: throughput is ops over total op time, and
    the latency percentiles are over every execution of every op.
    """
    pool = wl.ops
    samples: list[float] = []
    first: list[str | None] = [None] * len(pool)
    executed = [0] * len(pool)
    bad = [0] * len(pool)
    errors: list[str] = []
    out_bytes = 0
    wall = 0.0
    i = 0
    while True:
        if limit is None:
            if wall >= 4 * seconds or (wall >= seconds and i >= len(pool) and i % len(pool) == 0):
                break
        elif i >= limit:
            break
        k = i % len(pool)
        t = clock()
        try:
            out = wl.run(pool[k])
        except Exception as e:  # a failing op is counted, not fatal
            dt = clock() - t
            out = None
            bad[k] += 1
            if len(errors) < 5:
                errors.append(f"op {k}: {type(e).__name__}: {e}"[:400])
        else:
            dt = clock() - t
            d = digest(out)
            out_bytes += len(out)
            if first[k] is None:
                first[k] = d
            elif first[k] != d:
                bad[k] += 1
                if len(errors) < 5:
                    errors.append(f"op {k}: output differs between repeats")
        executed[k] += 1
        samples.append(dt)
        wall += dt
        i += 1
    p50, p90 = p50_p90(samples) if len(samples) > 1 else (samples[0], samples[0])
    return {
        "ops": i,
        "wall_s": wall,
        "ops_per_s": i / wall,
        "op_p50_ms": 1000 * p50,
        "op_p90_ms": 1000 * p90,
        "digests": first,
        "executed": executed,
        "bad": bad,
        "errors": errors,
        "output_bytes": out_bytes,
    }


# ---------------------------------------------------------------------------
# suites: an op is one checked instance; a pass runs all five suites.


class Suites:
    keep_spans = False

    def __init__(self, manifest: dict, inputs: Path):
        self.order = manifest["order"]
        self.seed = str(manifest["seed"])
        self.extra = manifest.get("suite_args", {})

    def setup(self) -> list[str]:
        import bevo  # noqa: F401
        import bevo.cli  # noqa: F401

        return []

    def run(self, suite: str) -> str:
        argv = ["check", "--suite", suite, "--seed", self.seed, "--format", "machine"]
        return run_cli(argv + self.extra.get(suite, []))


def timed_passes(wl, seconds: float, passes: int = 2) -> dict:
    """Whole passes over the suites, at least ``passes``, until ``seconds``.

    A pass takes about as long as a run measures, so one pass alone would
    report a single timing of each suite; with two or more, each suite's
    latency is its median over passes.
    """
    runs = []
    errors: list[str] = []
    times: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    wall = 0.0
    done = 0
    while done < passes or wall < seconds:
        for suite in wl.order:
            t = clock()
            try:
                out = wl.run(suite)
                dt = clock() - t
                doc = json.loads(out)
            except Exception as e:  # counted as failed by run.py
                dt = clock() - t
                runs.append({"suite": suite, "s": dt})
                errors.append(f"{suite}: {type(e).__name__}: {e}"[:400])
                wall += dt
                continue
            wall += dt
            runs.append(
                {
                    "suite": suite,
                    "s": dt,
                    "instances": doc["instances"],
                    "passed": doc["passed"],
                    "violations": len(doc["violations"]),
                    "digest": digest(out),
                }
            )
            if doc["instances"]:
                times.setdefault(suite, []).append(dt)
                counts[suite] = doc["instances"]
        done += 1
    per_instance = [(statistics.median(ts) / counts[s], counts[s]) for s, ts in times.items()]
    instances = sum(r.get("instances", 0) for r in runs)
    return {
        "passes": done,
        "ops": instances,
        "wall_s": wall,
        "ops_per_s": instances / wall,
        "op_p50_ms": 1000 * weighted_quantile(per_instance, 0.5) if per_instance else 0.0,
        "op_p90_ms": 1000 * weighted_quantile(per_instance, 0.9) if per_instance else 0.0,
        "runs": runs,
        "errors": errors,
    }


WORKLOADS = {"query-large": QueryLarge, "repair-conflict": RepairConflict, "suites": Suites}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    manifest = json.loads((args.inputs / "manifest.json").read_text())
    wl = WORKLOADS[manifest["workload"]](manifest, args.inputs)

    t0 = clock()
    import bevo

    failures = wl.setup()
    setup_s = clock() - t0
    result = {"setup_s": setup_s, "setup_failures": failures, "bevo_file": bevo.__file__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    passes = isinstance(wl, Suites)
    if passes:
        result.update(timed_passes(wl, args.seconds))
    else:
        result.update(timed_ops(wl, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(keep_spans=wl.keep_spans)
        tracer.install()
        try:
            result["traced_setup_failures"] = wl.setup()
            if passes:
                traced = timed_passes(wl, 0, passes=1)
            else:
                traced = timed_ops(wl, args.seconds, limit=result["ops"])
        finally:
            tracer.uninstall()
        overhead = (traced["ops_per_s"] - result["ops_per_s"]) / result["ops_per_s"]
        result["traced"] = {k: v for k, v in traced.items() if k != "ops_per_s"}
        result["layers"] = layer_values(tracer, overhead)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
