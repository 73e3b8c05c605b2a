"""Spans around the calls into each diskflow module, taken from outside.

diskflow binds names with ``from .x import f``, so a function is wrapped in
every module namespace that imported it (and in the package namespace the
benchmark calls through): that is where its callers look it up.  Inside its
own module a function stays unwrapped, except the entry points whose counts
the per-layer metrics need (ODE solves called by the boundary estimator, and
the CLI subcommands bound by the argument parser).  `extremals` is on no
workload's path and is not wrapped.

A span has a name, a start, an end and a parent.  A traced orbits run closes
about a million spans, so they are not kept one by one: each span is folded,
as it closes, into a calling-context tree whose nodes are keyed by (parent
node, name) and hold the call count, failures, inclusive time and self time
(inclusive time minus the inclusive time of its child spans).  The root
span covers the whole traced process, so the self times of all nodes add up
to the root's wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("herglotz_core", "generator", "value_regions", "semiflow", "loewner_cp", "cli")

# functions also wrapped inside their own module (see the module docstring)
OWN_MODULE = {
    "semiflow": ("integrate_flow", "integrate_flow_with_derivative", "flow_trajectory"),
    "cli": ("cmd_region", "cmd_flow", "cmd_verify", "cmd_cowen_pommerenke", "cmd_counterexample"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = ["root"]
        self.parents: list[int] = [-1]
        self.count: list[int] = [1]
        self.errors: list[int] = [0]
        self.incl: list[float] = [0.0]
        self.self_: list[float] = [0.0]
        self.index: dict[tuple[int, str], int] = {}
        self.stack: list[int] = [0]
        self.child_time: list[float] = [0.0]
        self.start = time.perf_counter()

    def _node(self, parent: int, name: str) -> int:
        key = (parent, name)
        node = self.index.get(key)
        if node is None:
            node = len(self.names)
            self.index[key] = node
            self.names.append(name)
            self.parents.append(parent)
            self.count.append(0)
            self.errors.append(0)
            self.incl.append(0.0)
            self.self_.append(0.0)
        return node

    def span(self, name: str):
        """Context manager form, for spans the benchmark opens itself."""
        return _Span(self, name)

    def _enter(self, name: str) -> int:
        node = self._node(self.stack[-1], name)
        self.stack.append(node)
        self.child_time.append(0.0)
        return node

    def _exit(self, node: int, elapsed: float, failed: bool) -> None:
        self.stack.pop()
        children = self.child_time.pop()
        self.child_time[-1] += elapsed
        self.count[node] += 1
        self.errors[node] += failed
        self.incl[node] += elapsed
        self.self_[node] += elapsed - children

    def wrap(self, fn, name: str):
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = self._enter(name)
            t0 = perf()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._exit(node, perf() - t0, failed)

        return traced

    def finish(self) -> None:
        """Close the root span at the current time."""
        total = time.perf_counter() - self.start
        self.incl[0] = total
        self.self_[0] = total - self.child_time[0]

    # -- queries over the tree ------------------------------------------

    def nodes(self, name: str):
        return [i for i, n in enumerate(self.names) if n == name]

    def calls(self, *names: str) -> int:
        return sum(self.count[i] for n in names for i in self.nodes(n))

    def failures(self, *names: str) -> int:
        return sum(self.errors[i] for n in names for i in self.nodes(n))

    def inclusive(self, *names: str) -> float:
        """Inclusive time of the outermost spans with these names (a recursive
        call inside one of them is not counted twice)."""
        wanted = set(names)
        return sum(
            self.incl[i] for i, n in enumerate(self.names) if n in wanted and not self.has_ancestor(i, wanted)
        )

    def mean(self, *names: str) -> float:
        n = self.calls(*names)
        return sum(self.incl[i] for m in names for i in self.nodes(m)) / n if n else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_) if n.split(".", 1)[0] == layer)

    def has_ancestor(self, node: int, names: set[str]) -> bool:
        node = self.parents[node]
        while node >= 0:
            if self.names[node] in names:
                return True
            node = self.parents[node]
        return False

    def calls_under(self, names: tuple[str, ...], ancestors: tuple[str, ...], direct: bool = False) -> int:
        wanted, above = set(names), set(ancestors)
        total = 0
        for i, n in enumerate(self.names):
            if n not in wanted:
                continue
            parent = self.parents[i]
            if (self.names[parent] in above) if direct else self.has_ancestor(i, above):
                total += self.count[i]
        return total

    def tree(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "count": c, "errors": e, "incl_s": t, "self_s": s}
            for n, p, c, e, t, s in zip(self.names, self.parents, self.count, self.errors, self.incl, self.self_)
        ]


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.node = self.tracer._enter(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._exit(self.node, time.perf_counter() - self.t0, exc_type is not None)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced diskflow module where they are looked up."""
    import diskflow

    # a module the workload never imported (cli, outside the cli workload) is skipped
    modules = {m: sys.modules[f"diskflow.{m}"] for m in MODULES if f"diskflow.{m}" in sys.modules}
    namespaces = list(modules.values()) + [sys.modules["diskflow.extremals"], diskflow]
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            traced = tracer.wrap(fn, f"{layer}.{attr}")
            for ns in namespaces:
                if vars(ns).get(attr) is fn and (ns is not module or attr in OWN_MODULE.get(layer, ())):
                    setattr(ns, attr, traced)
    atomic = modules["herglotz_core"].AtomicHerglotz
    atomic.__post_init__ = tracer.wrap(atomic.__post_init__, "herglotz_core.construct")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

SOLVES = ("semiflow.integrate_flow", "semiflow.integrate_flow_with_derivative", "semiflow.flow_trajectory")
GENERATOR_EVALS = ("generator.eval_generator", "generator.eval_generator_derivative", "generator.eval_generator_second_derivative")
HERGLOTZ_EVALS = ("herglotz_core.eval_herglotz", "herglotz_core.herglotz_derivative", "herglotz_core.herglotz_second_derivative")
REGIONS = tuple(
    f"value_regions.{f}"
    for f in ("region_Z", "region_Omega", "region_Omega_origin", "region_Z_omega", "interval_I", "parabolic_region", "lambda_range")
)
EVOLVES = ("loewner_cp.evolve", "loewner_cp.evolve_with_derivative")

UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_calls": "count", "_ratio": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics, by name.  `_calls` and plain counts are totals,
    `_us`/`_ms` are mean inclusive time per call, `_s` are totals; a mean or a
    ratio over no calls reads 0."""
    solves = tr.calls(*SOLVES)
    estimates = tr.calls("semiflow.estimate_boundary_derivative")
    evolves = tr.calls(*EVOLVES)
    recips = tr.calls("herglotz_core.reciprocal")
    return {
        "import.numpy_s": tr.inclusive("import.numpy"),
        "import.scipy_integrate_s": tr.inclusive("import.scipy_integrate"),
        "import.diskflow_s": tr.inclusive("import.diskflow"),
        "cli.region_s": tr.inclusive("cli.cmd_region"),
        "cli.flow_s": tr.inclusive("cli.cmd_flow"),
        "cli.cowen_pommerenke_s": tr.inclusive("cli.cmd_cowen_pommerenke"),
        "cli.counterexample_s": tr.inclusive("cli.cmd_counterexample"),
        "cli.verify_s": tr.inclusive("cli.cmd_verify"),
        "cli.self_s": tr.layer_self("cli"),
        "value_regions.random_spec_us": 1e6 * tr.mean("value_regions.random_spec"),
        "value_regions.inequality_suite_us": 1e6 * tr.mean("value_regions.inequality_suite"),
        "value_regions.region_us": 1e6 * tr.mean(*REGIONS),
        "value_regions.self_s": tr.layer_self("value_regions"),
        "generator.eval_calls": tr.calls(*GENERATOR_EVALS),
        "generator.eval_us": 1e6 * tr.mean(*GENERATOR_EVALS),
        "generator.dw_spectral_value_us": 1e6 * tr.mean("generator.dw_spectral_value"),
        "generator.convex_combination_ms": 1e3 * tr.mean("generator.convex_combination"),
        "generator.self_s": tr.layer_self("generator"),
        "herglotz_core.construct_calls": tr.calls("herglotz_core.construct"),
        "herglotz_core.construct_us": 1e6 * tr.mean("herglotz_core.construct"),
        "herglotz_core.eval_us": 1e6 * tr.mean(*HERGLOTZ_EVALS),
        "herglotz_core.reciprocal_calls": recips,
        "herglotz_core.reciprocal_ms": 1e3 * tr.mean("herglotz_core.reciprocal"),
        "herglotz_core.reciprocal_ok_ratio": (recips - tr.failures("herglotz_core.reciprocal")) / recips if recips else 0.0,
        "herglotz_core.quad_ms": 1e3 * tr.mean("herglotz_core.counterexample_P", "herglotz_core.counterexample_divergence"),
        "herglotz_core.self_s": tr.layer_self("herglotz_core"),
        "semiflow.solves": solves,
        # every right-hand-side evaluation calls eval_generator once
        "semiflow.rhs_per_solve": tr.calls_under(("generator.eval_generator",), SOLVES, direct=True) / solves if solves else 0.0,
        "semiflow.solves_per_estimate": tr.calls_under(SOLVES, ("semiflow.estimate_boundary_derivative",)) / estimates if estimates else 0.0,
        "semiflow.orbit_ms": 1e3 * tr.mean("semiflow.integrate_flow_with_derivative"),
        "semiflow.estimate_ms": 1e3 * tr.mean("semiflow.estimate_boundary_derivative"),
        "semiflow.self_s": tr.layer_self("semiflow"),
        "loewner_cp.evolve_ms": 1e3 * tr.mean(*EVOLVES),
        "loewner_cp.segments_per_evolve": tr.calls_under(SOLVES, EVOLVES) / evolves if evolves else 0.0,
        "loewner_cp.cp_experiment_us": 1e6 * tr.mean("loewner_cp.cp_experiment"),
        "loewner_cp.self_s": tr.layer_self("loewner_cp"),
        # the root span's own time: the benchmark's loop, input draws and checks
        "bench.self_s": tr.self_[0],
        "trace.self_sum_s": sum(tr.self_),
    }


def with_units(metrics: dict[str, float]) -> dict[str, dict]:
    return {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
