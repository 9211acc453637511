"""Per-layer tracing installed from outside the package.

``Tracer`` replaces the public functions and methods of each krrapsp layer
with timing wrappers, in every package namespace that holds them, and puts
the original objects back on exit. The package itself carries no timers.

A span is one wrapped call. Its self time is its duration minus the time
its child spans and aggregated calls cover. ``as_vector`` is aggregated:
it is called several times per filter step, so it adds its time to its
caller's child time and to a running total instead of recording a span.
A Monte-Carlo scenario's ``samples`` generator is timed around each
``next``.

Layers are the package modules: ``scenarios``, ``estimation``, ``linalg``,
``filters``, ``complexity``, ``experiments`` and ``verify``. Filter
counters (steps, updates, basis builds, ``mult_totals``) are read from the
instances the step wrappers saw.
"""

from __future__ import annotations

import functools
import sys
import time

_perf = time.perf_counter

FILTER_CLASSES = {"KrrApsp": "krr", "Cgrrf": "cgrrf", "Nlms": "nlms", "Rls": "rls"}
ALGS = tuple(FILTER_CLASSES.values())
MULT_CATEGORIES = ("stats", "transform", "filter", "basis", "rebase")
# public analysis functions reached from verify.run_all
VERIFY_FUNCTIONS = (
    "apply_phi", "fixed_point_set", "attracting_check", "halfspace_range_distance",
    "dykstra_distance", "theta_value", "rapsm_step", "find_feasible_point",
    "monotone_probe", "static_rapsm_run", "cg_bound_check",
    "subgradient_inequality_check",
)
# (module, function, span name); the span name is also the metric prefix
FUNCTION_SPANS = (
    ("linalg", "krylov_basis", "linalg.krylov_basis"),
    ("linalg", "cg_solve", "linalg.cg_solve"),
    ("experiments", "run_experiment", "experiments.harness"),
    ("experiments", "write_csv", "experiments.write_csv"),
    ("verify", "run_all", "verify.run_all"),
) + tuple(("verify", fn, f"verify.{fn}") for fn in VERIFY_FUNCTIONS)
AGGREGATED = (("linalg", "as_vector", "linalg.as_vector"),)
# (module, class, method, span name)
METHOD_SPANS = (
    ("estimation", "CorrelationEstimator", "update", "estimation.update"),
    ("estimation", "CorrelationEstimator", "r_matrix", "estimation.snapshot"),
    ("estimation", "CorrelationEstimator", "p_vector", "estimation.snapshot"),
    ("scenarios", "SysIdScenario", "__init__", "scenarios.init"),
    ("scenarios", "CdmaScenario", "__init__", "scenarios.init"),
) + tuple(("filters", cls, "step", f"filters.{alg}.step")
          for cls, alg in FILTER_CLASSES.items())
GENERATORS = (
    ("scenarios", "SysIdScenario", "samples", "scenarios.samples"),
    ("scenarios", "CdmaScenario", "samples", "scenarios.samples"),
)
ROOT_SPAN = "rep"


class Tracer:
    """Spans and counts of the package layers while installed.

    Use as a context manager around traced repetitions; open the root span
    of each repetition with :meth:`root`. With ``keep_spans`` every span is
    also kept as ``(span_id, parent_id, name, start, end)``.
    """

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self._stack = []  # open frames: [start, child_time, span_id]
        self._patches = []
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.samples = 0
        self.instances = {}
        self.spans = []
        self._next_id = 1

    # -- recording ----------------------------------------------------------

    def _close(self, name: str, frame: list, end: float) -> None:
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if self.keep_spans:
            parent = stack[-1][2] if stack else 0
            self.spans.append((frame[2], parent, name, frame[0], end))

    def _open(self) -> list:
        frame = [0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[0] = _perf()
        return frame

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span of one traced repetition."""
        frame = self._open()
        try:
            return fn(*args)
        finally:
            self._close(ROOT_SPAN, frame, _perf())

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, _perf())
        return wrapper

    def _aggregated(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                if stack:
                    stack[-1][1] += dur
        return wrapper

    def _step(self, name: str, fn):
        timed = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(filt, *args, **kwargs):
            self.instances[id(filt)] = filt
            return timed(filt, *args, **kwargs)
        return wrapper

    def _generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timed_next = self._span(name, fn(*args, **kwargs).__next__)

            def gen():
                while True:
                    try:
                        item = timed_next()
                    except StopIteration:
                        return
                    self.samples += 1
                    yield item
            return gen()
        return wrapper

    # -- installation -------------------------------------------------------

    def __enter__(self):
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "krrapsp" or n.startswith("krrapsp.")]
        for kind, table in ((self._span, FUNCTION_SPANS), (self._aggregated, AGGREGATED)):
            for mod, fn, name in table:
                orig = getattr(sys.modules.get(f"krrapsp.{mod}"), fn, None)
                if orig is None:
                    continue
                wrapper = kind(name, orig)
                for module in package:
                    for attr, val in list(vars(module).items()):
                        if val is orig:
                            self._patch(module, attr, wrapper, orig)
        for kind, table in ((self._span, METHOD_SPANS), (self._generator, GENERATORS)):
            for mod, cls_name, meth, name in table:
                cls = getattr(sys.modules.get(f"krrapsp.{mod}"), cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is None:
                    continue
                make = self._step if name.endswith(".step") else kind
                self._patch(cls, meth, make(name, orig), orig)
        return self

    def _patch(self, owner, attr, wrapper, orig) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, reps: int) -> dict:
        """Per-layer metrics per repetition: ``{name: (value, unit)}``.

        Counts and times are totals over the traced repetitions divided by
        ``reps``. ``_s`` metrics are inclusive span times unless named
        ``_self_s``.
        """
        complexity = sys.modules["krrapsp.complexity"]
        estimator_cls = sys.modules["krrapsp.estimation"].CorrelationEstimator
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def per_rep(name, table):
            return table.get(name, 0) / reps

        per_alg = {alg: {"steps": 0, "updates": 0, "measured": 0, "model": 0.0,
                         "mults": dict.fromkeys(MULT_CATEGORIES, 0)} for alg in ALGS}
        krr = {"builds": 0, "skipped_zero_direction": 0, "cancelled_updates": 0}
        stats_mults_estimator = 0
        for filt in self.instances.values():
            alg = FILTER_CLASSES[type(filt).__name__]
            acc = per_alg[alg]
            acc["steps"] += filt.steps
            acc["updates"] += filt.update_count
            for cat in MULT_CATEGORIES:
                acc["mults"][cat] += filt.mult_totals[cat]
            # recurring charges plus the amortised basis charge
            acc["measured"] += sum(filt.mult_totals[c] for c in MULT_CATEGORIES
                                   if c != "rebase")
            acc["model"] += float(_model_count(complexity, alg, filt)) * filt.steps
            if isinstance(getattr(filt, "est", None), estimator_cls):
                stats_mults_estimator += filt.mult_totals["stats"]
            if alg == "krr":
                krr["builds"] += filt.build_count
                krr["skipped_zero_direction"] += filt.skipped_zero_direction
                krr["cancelled_updates"] += filt.cancelled_updates

        step_self_total = 0.0
        for alg in ALGS:
            acc = per_alg[alg]
            span = f"filters.{alg}.step"
            step_self_total += self.self_time.get(span, 0.0)
            put(f"filters.{alg}.step_self_s", per_rep(span, self.self_time), "s")
            put(f"filters.{alg}.steps", acc["steps"] / reps, "count")
            put(f"filters.{alg}.update_ratio",
                acc["updates"] / acc["steps"] if acc["steps"] else 0.0, "ratio")
            for cat in MULT_CATEGORIES:
                put(f"filters.{alg}.mults.{cat}", acc["mults"][cat] / reps, "count")
        for key, val in krr.items():
            put(f"filters.krr.{key}", val / reps, "count")

        for span in ("linalg.krylov_basis", "linalg.cg_solve", "linalg.as_vector"):
            put(f"{span}_s", per_rep(span, self.total), "s")
            put(f"{span}_calls", per_rep(span, self.calls), "count")
        put("estimation.update_s", per_rep("estimation.update", self.total), "s")
        put("estimation.update_calls", per_rep("estimation.update", self.calls), "count")
        put("estimation.snapshot_s", per_rep("estimation.snapshot", self.total), "s")
        put("estimation.snapshot_calls", per_rep("estimation.snapshot", self.calls), "count")
        put("scenarios.init_s", per_rep("scenarios.init", self.total), "s")
        put("scenarios.samples_s", per_rep("scenarios.samples", self.total), "s")
        put("scenarios.samples", self.samples / reps, "count")
        put("experiments.harness_self_s", per_rep("experiments.harness", self.self_time), "s")
        put("experiments.write_csv_s", per_rep("experiments.write_csv", self.total), "s")

        mults = {cat: sum(per_alg[a]["mults"][cat] for a in ALGS) for cat in MULT_CATEGORIES}
        basis_s = self.total.get("linalg.krylov_basis", 0.0) + self.total.get("linalg.cg_solve", 0.0)
        ns_per_mult = {
            "stats": (self.total.get("estimation.update", 0.0), stats_mults_estimator),
            "basis": (basis_s, mults["basis"]),
            "filter": (step_self_total, mults["filter"] + mults["transform"]),
        }
        for cat, (seconds, count) in ns_per_mult.items():
            put(f"ns_per_mult.{cat}", 1e9 * seconds / count if count else 0.0, "ns/mult")
        for alg in ALGS:
            acc = per_alg[alg]
            put(f"complexity.ratio.{alg}",
                acc["measured"] / acc["model"] if acc["model"] else 0.0, "ratio")

        for fn in VERIFY_FUNCTIONS:
            put(f"verify.{fn}_s", per_rep(f"verify.{fn}", self.total), "s")
            put(f"verify.{fn}_calls", per_rep(f"verify.{fn}", self.calls), "count")
        put("verify.run_all_self_s", per_rep("verify.run_all", self.self_time), "s")
        return out


def _model_count(complexity, alg: str, filt):
    """Closed-form per-step multiplication count of one filter instance."""
    if alg == "krr":
        p = filt.params
        return complexity.count("krr-apsp", filt.n, rank=p.rank, q=p.projections,
                                r=p.error_dim, m=p.refresh_period)
    if alg == "cgrrf":
        return complexity.count("cgrrf", filt.n, rank=filt.rank, m=filt.refresh_period)
    return complexity.count(alg, filt.n)

