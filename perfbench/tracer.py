"""Spans around bevo's public functions, from outside the program.

``Tracer.install`` replaces every public module-level function of the
bevo modules with a timing wrapper, both where it is defined and wherever
another bevo module imported it by name (``bevo.cli.evolve`` is the same
function as ``bevo.evolution.evolve``), and ``uninstall`` puts the
originals back.  Calls made through any of those names then record a span
(name, start, end, parent).  Self time is a span's duration minus the
time covered by its child spans.

Left unwrapped: generator functions, whose call only creates the
generator, and the per-state helpers ``true_fluents``, ``format_state``
and ``state_index``, which cost less than a wrapper does; their time
counts in the caller's self time.

With ``keep_spans`` the spans are kept in memory for ``write``;
without it (the suites make millions of calls) only the per-function and
per-(function, parent) totals are kept.  bevo runs in one process with no
queue, so no layer waits and no wait time is recorded.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

SKIPPED = frozenset({"true_fluents", "format_state", "state_index"})
MODULES = (
    "bevo",
    "bevo.kernel",
    "bevo.update",
    "bevo.revision",
    "bevo.evolution",
    "bevo.dsl",
    "bevo.postulates",
    "bevo.cli",
)


def _num_repairable(view, ts) -> int:
    n = ts.signature.num_states
    return sum(1 for o in view.observations if len(o) != n)


def _dalal_distance(kappa, out) -> int:
    s = next(iter(out))
    return min((s ^ b).bit_count() for b in kappa)


class Tracer:
    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = {}
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = [importlib.import_module(m) for m in MODULES]
        labels = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, val in vars(mod).items():
                if (
                    inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in SKIPPED
                    and not inspect.isgeneratorfunction(val)
                ):
                    labels[val] = f"{short}.{name}"
        wrappers = {fn: self._wrap(fn, label) for fn, label in labels.items()}
        for mod in mods:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, name, wrappers[val])
                    self._patched.append((mod, name, val))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, label: str):
        stack = self._stack
        spans = self.spans
        keep = self.keep_spans
        calls, self_s, edges = self.calls, self.self_s, self.edges
        hook = getattr(self, "_hook_" + label.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            if keep:
                spans.append(None)
            frame = [0.0, label, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                own = end - start - frame[0]
                calls[label] += 1
                self_s[label] += own
                key = (label, parent[1] if parent else "")
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, end - start, own]
                else:
                    edge[0] += 1
                    edge[1] += end - start
                    edge[2] += own
                if keep:
                    spans[index] = (label, start, end, parent[2] if parent else -1)
                if parent is not None:
                    parent[0] += end - start
            if hook is not None:
                hook(args, kwargs, result, end - start)
                if parent is not None:
                    # The parent's self time excludes the counters' upkeep.
                    parent[0] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- per-function counters ---------------------------------------------

    def _hook_dsl_serialize_result(self, args, kwargs, out, dur):
        self.stats["dsl.serialize_result.bytes"] += len(out.encode())

    def _hook_kernel_models(self, args, kwargs, out, dur):
        self.stats["kernel.models.states_out"] += len(out)

    def _hook_revision_revise(self, args, kwargs, out, dur):
        kappa = args[0] if args else kwargs["kappa"]
        alpha = args[1] if len(args) > 1 else kwargs["alpha"]
        self.stats["revision.revise.kappa_size"] += len(kappa)
        self.stats["revision.revise.alpha_size"] += len(alpha)
        if out:
            self.stats["revision.dalal_distance.sum"] += _dalal_distance(kappa, out)
            self.stats["revision.dalal_distance.n"] += 1

    def _hook_evolution_repairs(self, args, kwargs, out, dur):
        self.stats["evolution.repairs.out_size"] += len(out)

    def _hook_evolution_minimal_repair_candidates(self, args, kwargs, out, dur):
        self.stats["evolution.minimal_repair_candidates.out_size"] += len(out)
        view = args[0] if args else kwargs["view"]
        ts = args[1] if len(args) > 1 else kwargs["ts"]
        self.stats["evolution.minimal_repair_candidates.positions"] += _num_repairable(view, ts)

    def _hook_postulates_run_suite(self, args, kwargs, out, dur):
        name = args[0] if args else kwargs["name"]
        self.stats[f"postulates.run_suite.{name}.total_s"] += dur
        self.stats[f"postulates.instances.{name}"] += out.instances

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans (or, without ``keep_spans``, per-edge totals) as JSON."""
        doc = {
            "functions": {
                k: {"calls": self.calls[k], "self_s": self.self_s[k]} for k in sorted(self.calls)
            },
            "edges": [
                {"function": f, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (f, p), (c, t, s) in sorted(self.edges.items())
            ],
            "spans_fields": ["name", "start", "end", "parent"],
            "spans": self.spans if self.keep_spans else None,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
