"""bevo's benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload query-large|repair-conflict|suites
        [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]

The inputs are generated from the seed and written under
``perfbench/_work``.  Each measurement runs in a fresh interpreter
(``worker.py``) that imports bevo from the checkout's ``src``.  Set-up is
timed in several fresh interpreters and reported as the median.  After the
timed loop every distinct op is checked, untimed, against the definitional
reference in ``reference.py``; mismatches, exceptions and nonzero exit
codes count as failed.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` the same inputs are replayed
under the tracer and the per-layer metrics are reported instead.  The line
before it is a run record: machine, seed, input mix and failure details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
from metrics import END_TO_END, SUITES, per_layer_units  # noqa: E402

ROOT = HERE.parent
WORK = HERE / "_work"
DEFAULT_SEED = 0
DEADLINE_S = 170  # every run must end within 180 s
PINNED = json.loads((HERE / "pinned.json").read_text())

# Fresh interpreters whose set-up time makes up the reported median.
SETUP_SAMPLES = {"query-large": 3, "repair-conflict": 21, "suites": 21}
TINY_SUITE_ARGS = {
    "interaction": ["--samples", "20"],
    "agm": ["--fluents", "2"],
    "dp": ["--samples", "20"],
    "lehmann": ["--samples", "20"],
    "i1i2": ["--samples", "2"],
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Inputs.


def write_inputs(workload: str, seed: int, scale: str, out: Path) -> tuple[dict, dict, list]:
    """Write the program's inputs; return (manifest, domains, ops)."""
    out.mkdir(parents=True)
    domains: dict = {}
    ops: list = []
    manifest: dict = {"workload": workload}
    if workload == "suites":
        # The default scopes are exhaustive, so the seed handed to
        # ``bevo check --seed`` changes nothing there; the suites run in a
        # fixed order because a suite's speed depends on what ran before it.
        manifest["order"] = list(SUITES)
        manifest["seed"] = seed
        if scale == "tiny":
            manifest["suite_args"] = TINY_SUITE_ARGS
    else:
        make_domains, make_pool = {
            "query-large": (inputs.query_domains, inputs.query_pool),
            "repair-conflict": (inputs.repair_domains, inputs.repair_pool),
        }[workload]
        domains = make_domains(seed, scale)
        ops = make_pool(seed, domains, scale)
        manifest["domains"] = {}
        for name, dom in domains.items():
            (out / f"{name}.bevd").write_text(dom.text)
            manifest["domains"][name] = f"{name}.bevd"
        program_ops = []
        for i, op in enumerate(ops):
            if workload == "repair-conflict":
                (out / f"r{i}.bevs").write_text(op["text"])
                program_ops.append({"kind": op["kind"], "domain": op["domain"], "file": f"r{i}.bevs"})
            else:
                keep = ("kind", "domain", "text", "kappa_text", "alpha_text", "actions")
                program_ops.append({k: op[k] for k in keep if k in op})
        manifest["ops"] = program_ops
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest, domains, ops


def summarize(values) -> dict:
    vals = sorted(values)
    if not vals:
        return {}
    return {
        "min": vals[0],
        "median": statistics.median(vals),
        "max": vals[-1],
        "mean": statistics.mean(vals),
    }


def describe_inputs(workload: str, domains: dict, ops: list, evolutions: list) -> dict:
    """The input mix a run used, for the run record."""
    if workload == "suites":
        return {}

    def count(key: str) -> dict:
        values = [op[key] for op in ops if op.get(key) is not None]
        return {v: values.count(v) for v in sorted(set(values))}

    desc = {
        "fluents": {k: len(d.fluents) for k, d in domains.items()},
        "ops": len(ops),
        "kinds": count("kind"),
        "kappa_size": summarize(len(op["kappa"]) for op in ops if op.get("kappa")),
        "view_length": summarize(len(op["actions"]) for op in ops),
    }
    if workload == "repair-conflict":
        inconsistent = [(op, evo) for op, evo in zip(ops, evolutions) if not evo[0]]
        discarded = [
            sum(1 for o in view if len(o) == domains[op["domain"]].num_states)
            for op, (_, views, _) in inconsistent
            for view in views
        ]
        desc.update(
            inconsistent_share=len(inconsistent) / len(ops),
            mean_discarded_positions=statistics.mean(discarded) if discarded else 0.0,
            mean_repairs_per_inconsistent_view=(
                statistics.mean(len(evo[1]) for _, evo in inconsistent) if inconsistent else 0.0
            ),
            reliability=count("reliability"),
            mode=count("mode"),
        )
    return desc


# ---------------------------------------------------------------------------
# Checking.


def check_ops(workload: str, domains: dict, ops: list, res: dict) -> tuple[int, list, list, list]:
    """Failed executions after comparing every executed op with the reference."""
    failed = sum(res["bad"])
    problems = list(res["errors"])
    expected_digests = []
    evolutions = []
    for k, op in enumerate(ops):
        dom = domains[op["domain"]]
        if workload == "query-large":
            expected = reference.query_output(dom, op)
        else:
            evo = reference.evolution(dom, op)
            evolutions.append(evo)
            expected = reference.cli_output(dom, op, *evo)
        want = hashlib.sha256(expected.encode()).hexdigest()
        expected_digests.append(want)
        got = res["digests"][k]
        if got is not None and got != want:
            failed += res["executed"][k] - res["bad"][k]
            problems.append(f"op {k} ({op['kind']}): output differs from the reference")
    return failed, problems, expected_digests, evolutions


def check_suites(runs: list, scale: str) -> tuple[int, list]:
    failed = 0
    problems = []
    for r in runs:
        ok = "instances" in r and r["passed"] and not r["violations"]
        if ok and scale == "full":
            ok = r["instances"] == PINNED["suite_instances"][r["suite"]]
            ok = ok and r["digest"] == PINNED["suite_digests"].get(r["suite"])
        if not ok:
            failed += r.get("instances") or PINNED["suite_instances"][r["suite"]]
            problems.append(f"suite {r['suite']}: {dict((k, v) for k, v in r.items() if k != 'digest')}")
    return failed, problems


def combined_digest(digests) -> str | None:
    if any(d is None for d in digests):
        return None
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Processes.


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args,
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_record() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bevo").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("query-large", "repair-conflict", "suites"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bevo" / "__init__.py").is_file():
        return fail(f"no bevo sources under {ROOT / 'src'}; run from a bevo checkout")

    wl = args.workload
    work = WORK / f"{wl}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # Fixes the iteration order of sets of strings, so that runs of the same
    # inputs do the same work.
    env["PYTHONHASHSEED"] = "0"
    spans = WORK / f"spans-{wl}-seed{args.seed}.json"
    try:
        manifest, domains, ops = write_inputs(wl, args.seed, args.scale, work)
        common = ["--inputs", str(work), "--seconds", str(args.seconds)]

        def setup_samples(n: int) -> list[float]:
            return [run_worker(common + ["--setup-only"], env, deadline)["setup_s"] for _ in range(n)]

        # The host's speed drifts over tens of seconds, so the set-up
        # samples are split around the measuring worker rather than taken
        # back to back.
        before = (SETUP_SAMPLES[wl] - 1) // 2
        setups = setup_samples(before)
        main_args = common + ["--trace", str(args.trace), "--spans", str(spans)]
        res = run_worker(main_args, env, deadline)
        setups += setup_samples(SETUP_SAMPLES[wl] - 1 - before)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as e:
        return fail(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    src = (ROOT / "src").resolve()
    if not Path(res["bevo_file"]).resolve().is_relative_to(src):
        return fail(f"imported bevo from {res['bevo_file']}, not from {src}")
    setups.append(res["setup_s"])

    problems = res["setup_failures"] + res.get("traced_setup_failures", [])
    failed = len(problems)
    if wl == "suites":
        runs = res["runs"] + res.get("traced", {}).get("runs", [])
        sfailed, sproblems = check_suites(runs, args.scale)
        failed += sfailed
        problems += sproblems + res["errors"]
        out_digest = None
        desc = {"order": manifest["order"], "passes": res["passes"]}
    else:
        ofailed, oproblems, expected, evolutions = check_ops(wl, domains, ops, res)
        failed += ofailed
        problems += oproblems
        traced = res.get("traced")
        if traced:
            failed += sum(traced["bad"])
            diverged = [k for k, d in enumerate(traced["digests"]) if d is not None and d != expected[k]]
            failed += sum(traced["executed"][k] for k in diverged)
            problems += traced["errors"] + [f"op {k}: traced output differs" for k in diverged]
        out_digest = combined_digest(res["digests"])
        desc = describe_inputs(wl, domains, ops, evolutions)
        desc["output_bytes_per_op"] = res["output_bytes"] / res["ops"]
    pinned_ok = True
    if args.scale == "full" and args.seed == DEFAULT_SEED and wl != "suites":
        pinned_ok = out_digest == PINNED["output_digests"].get(wl)
        if not pinned_ok:
            problems.append(f"output digest {out_digest} differs from the pinned one")

    attempted = res["ops"]
    failed = min(failed, attempted)
    if args.trace:
        units = per_layer_units()
        values = res["layers"]
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    record = {
        "workload": wl,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine_record(),
        "failed_frac": failed / attempted,
        "problems": problems[:20],
        "setup_samples_s": setups,
        "timed_wall_s": res["wall_s"],
        "output_digest": out_digest,
        "inputs": desc,
    }
    if wl == "suites":
        record["suite_runs"] = res["runs"]
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and pinned_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
