"""krrapsp benchmark: Monte-Carlo throughput on four workloads, with a layer trace.

Run from the root of a source checkout (nothing needs to be installed; the
package is imported from ``src``)::

    python3 benchmarks/run.py --workload sysid-rank-sweep --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

A run makes an untimed warm-up (a few trials), then times repetitions of the
workload until another one would not end within ``--seconds`` of the
start (at least three repetitions, and whole passes of the
``verify-suite`` pool). Before each untraced repetition it sets the
package up afresh several times (import plus construction of the
workload) and runs the repetition on the last set-up, so set-up times
are sampled across the whole run. Every repetition's output is checked:
against the stored reference when ``reference.json`` has one for the seed,
otherwise for finite, in-range values; a Monte-Carlo repetition must also
write the same CSV as the first one.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s`` - median seconds of one set-up, over every set-up of the run;
* ``wall_rel`` - median over repetitions of the repetition's wall time
  (``run_experiment`` plus ``write_csv``, or one ``verify.run_all``)
  divided by the time of a fixed reference kernel run beside it; see
  :class:`ReferenceKernel`;
* ``peak_rss_mb`` - peak resident memory of the process, in MiB.

It also prints, as text lines, ``wall_s`` (median seconds of one
repetition), ``steps_per_s`` (filter steps per second, Monte-Carlo
workloads only) and ``failed_frac`` (failed over attempted repetitions).
These are not in the JSON result: raw seconds drift with the host's speed
by more than any useful bound, and failures are carried by ``failed`` and
``attempted``.

With ``--trace 1`` untraced repetitions alternate with repetitions run
with the layer wrappers of ``layertrace.py`` installed. The run reports
the per-layer metrics per repetition plus ``trace.overhead_frac`` (the
median traced over untraced time of adjacent pairs, minus 1).

``--workload all`` runs every workload, untraced and then traced, one
process at a time. The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS thread: pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_PER_REP = 4
MIN_REPS = 3


def set_up(workloads, name: str, seed: int, out_dir: Path):
    """Import the package afresh and build the workload; returns (seconds, job)."""
    for module in [n for n in sys.modules if n == "krrapsp" or n.startswith("krrapsp.")]:
        del sys.modules[module]
    gc.collect()
    start = time.perf_counter()
    for module in ("krrapsp", "krrapsp.experiments", "krrapsp.verify", "krrapsp.complexity"):
        importlib.import_module(module)
    job = workloads.build(name, seed, out_dir)
    return time.perf_counter() - start, job


class ReferenceKernel:
    """A fixed numpy-and-Python loop whose time stands for machine speed.

    Shared hosts change speed by tens of percent within seconds, and the
    changes hit a repetition and a short kernel differently. Timing this
    kernel (about 0.4 s) between repetitions and dividing each repetition
    by the mean of the kernel runs before and after it takes most of the
    drift out of ``wall_rel``. The drift hits interpreter-bound and
    memory-bound code differently, so the kernel has three parts: small
    matrix-vector products in a Python loop, like the KRR step; rank-one
    updates of a 200 x 200 matrix, like RLS at N=200; and one step each of
    300 small filter-like states, like the trials and filters of a
    Monte-Carlo repetition, whose memory footprint is the package's rather
    than a tight loop's. It is benchmark code, so a change to the package
    cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.standard_normal((50, 50))
        self._vector = rng.standard_normal(50)
        self._update = rng.standard_normal(200) / 20.0
        self._inputs = rng.standard_normal((64, 50))
        self._states = [
            {"h": np.zeros(50), "basis": rng.standard_normal((50, 8)) / 7.0,
             "r": np.eye(8), "ring": collections.deque(rng.standard_normal((10, 50)), maxlen=10)}
            for _ in range(300)]

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        x = self._vector
        for _ in range(30000):
            y = self._small @ x
            x = y / math.sqrt(float(y @ y))
        big = np.eye(200)
        w = self._update
        for _ in range(1000):
            pi = big @ w
            gain = pi / (1.0 + float(w @ pi))
            big = (big - np.outer(gain, pi)) / 0.999
        inputs = self._inputs
        for step in range(20):
            for index, state in enumerate(self._states):
                u = inputs[(index + step) % 64]
                state["ring"].appendleft(u)
                reduced = state["basis"].T @ u
                ips = [float(v @ state["h"]) for v in state["ring"]]
                err = inputs[(7 * index + step) % 64, 0] - ips[0]
                if err * err > 0.1:
                    state["h"] = 0.999 * state["h"] + (0.01 * err / (1.0 + float(u @ u))) * u
                state["r"] = 0.999 * state["r"] + 0.001 * np.outer(reduced, reduced)
        return time.perf_counter() - start


class Runner:
    """Runs and checks repetitions of one job, counting the failed ones."""

    def __init__(self, job, reference):
        self.job = job
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digest = None
        self._kernel_after = None

    def rep(self, index: int, call=None, kernel=None):
        """Run, time and check one repetition.

        Returns its seconds and, when a ``kernel`` is given, the mean
        seconds of the kernel run before and after it; the run after one
        repetition is the run before the next.
        """
        gc.collect()
        self.attempted += 1
        if kernel and self._kernel_after is None:
            self._kernel_after = kernel()
        before = self._kernel_after
        start = time.perf_counter()
        try:
            (call or self.job.rep)(index)
        except Exception as exc:  # a failing repetition is counted, not fatal
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            problems = None
        yardstick = None
        if kernel:
            self._kernel_after = kernel()
            yardstick = (before + self._kernel_after) / 2.0
        if problems is None:
            problems = self.job.check(self.reference)
            if self.first_digest is None:
                self.first_digest = self.job.digest
            elif self.job.digest != self.first_digest:
                problems.append("output differs from the first repetition of the same seed")
        if problems:
            self.failed += 1
            self.problems.extend(f"repetition {self.attempted}: {p}" for p in problems)
        return elapsed, yardstick

    def repeat(self, budget: float, body, min_count: int) -> int:
        """Call ``body(index)`` for whole periods while another fits in ``budget`` seconds.

        At least ``min_count`` calls are made, rounded up to whole periods.
        """
        count = 0
        start = time.perf_counter()
        while True:
            body(count)
            count += 1
            if count % self.job.period:
                continue
            elapsed = time.perf_counter() - start
            if count >= min_count and elapsed * (count + self.job.period) / count > budget:
                return count


def _environment(seed: int) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return (f"# env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} blas={blas} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} seed={seed}")


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy  # noqa: F401  (imported before the timed set-ups)

    sys.path.insert(0, str(SRC))
    import workloads
    from layertrace import Tracer

    out_dir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    setup_times = []

    def fresh_job():
        for _ in range(SETUPS_PER_REP):
            elapsed, job = set_up(workloads, name, seed, out_dir)
            setup_times.append(elapsed)
        return job

    try:
        job = fresh_job()
        origin = Path(sys.modules["krrapsp"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            print(f"krrapsp imported from {origin}, not from {SRC}", file=sys.stderr)
            return 2
        reference = workloads.reference_for(name, seed)
        runner = Runner(job, reference)
        print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
        print(_environment(seed))
        if reference is None:
            print(f"# reference: skipped, none stored for seed {seed}; "
                  "checked finite, in-range and repeatable outputs only")
        else:
            print(f"# reference: comparing with the stored reference for seed {seed}")

        # lazy first-call work finishes before timing; counts against the budget
        start = time.perf_counter()
        job.warm_up()
        budget = seconds - (time.perf_counter() - start)
        metrics = {}
        if not trace:
            kernel = ReferenceKernel()
            times, yardstick = [], []

            def measured(index):
                if index:
                    runner.job = fresh_job()
                elapsed, ref = runner.rep(index, kernel=kernel)
                times.append(elapsed)
                yardstick.append(ref)

            runner.repeat(budget, measured, MIN_REPS)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["wall_rel"] = (
                statistics.median(t / r for t, r in zip(times, yardstick)), "ref")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
            wall = statistics.median(times)
            print(f"# setup_s {_quartiles(setup_times)}; wall_s {_quartiles(times)}; "
                  f"reference kernel {_quartiles(yardstick)}")
            print("# repetitions (s, kernel s): " + " ".join(
                f"{t:.4f},{r:.4f}" for t, r in zip(times, yardstick)))
            print("# setups (s): " + " ".join(f"{t:.4f}" for t in setup_times))
            print(f"wall_s {wall:.6g} s")
            if job.steps is not None:
                print(f"steps_per_s {job.steps / wall:.6g} 1/s")
        else:
            # untraced and traced repetitions alternate on the same inputs, so
            # the overhead compares pairs run moments apart
            tracer = Tracer()
            times, traced, counts = [], [], []

            def pair(index):
                times.append(runner.rep(index)[0])
                with tracer:
                    traced.append(runner.rep(index, lambda i: tracer.root(job.rep, i))[0])
                counts.append(dict(tracer.calls))

            pairs = runner.repeat(budget, pair, 1)
            deltas = [{k: v - before.get(k, 0) for k, v in after.items()}
                      for before, after in zip([{}] + counts, counts)]
            if job.period == 1 and any(d != deltas[0] for d in deltas):
                runner.failed += 1
                runner.problems.append("per-layer call counts differ between repetitions")
            metrics.update(tracer.metrics(pairs))
            metrics["trace.overhead_frac"] = (
                statistics.median(t / u for t, u in zip(traced, times)) - 1.0, "ratio")
            print(f"# untraced {_quartiles(times)}; traced {_quartiles(traced)}")

        for problem in runner.problems[:20]:
            print(f"# FAILED {problem}")
        for key, (value, unit) in metrics.items():
            print(f"{key} {value:.6g} {unit}")
        print(f"failed_frac {runner.failed / runner.attempted:.6g} "
              f"({runner.failed}/{runner.attempted})")
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, one child process at a time."""
    from workloads import WORKLOADS

    combined = {}
    attempted = failed = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for key, val in result["metrics"].items():
                combined[f"{name}.{key}"] = val
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics (ignored by --workload all)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "krrapsp" / "__init__.py").is_file():
        print(f"no krrapsp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
