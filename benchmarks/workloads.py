"""Workloads of the krrapsp benchmark and the checks on their outputs.

Each workload is built from the benchmark seed alone and drives the
library only through its public API (``run_experiment``,
``config_metadata``, ``write_csv``, ``verify.run_all``). Why each one is
in the benchmark:

* ``sysid-rank-sweep`` - the rank-sweep acceptance shape (three KRR-APSP
  filters, D in {3, 5, 8}, fed from one stream per trial). It is the
  tier-1 hotspot; most projection sets are satisfied and skipped.
* ``cdma-dynamic`` - the dynamic-CDMA acceptance shape. Full symmetric
  (N^2) statistics, a per-user scenario loop, and a KRR filter whose sets
  are mostly violated.
* ``baselines-n200`` - NLMS, RLS and CGRRF at N=200 with no KRR filter,
  so a KRR-only change must leave it unchanged.
* ``verify-suite`` - the 13-check verification suite, the only workload
  that reaches the ``verify`` analysis objects.

Every Monte-Carlo workload runs ``RUNS`` = 100 trials, the ensemble size
of the paper and of the acceptance fixtures, so a change whose cost per
trial depends on the number of trials (running them as one batch, say)
shows at the size it is used at. A repetition stays a few seconds long by
running fewer iterations per trial than those fixtures: each workload
passes its estimator warm-up (N samples) and its mid-run change, but the
KRR filters of ``sysid-rank-sweep`` are still converging, so their update
ratio reads about 0.7 instead of the steady 0.22-0.48.

Repetitions of a Monte-Carlo workload repeat one experiment, so each must
write the same CSV. The cost of ``verify.run_all`` depends strongly on its
seed (0.7 s to 3.1 s on seeds 0..39, through the Dykstra iteration
counts), so a per-seed wall time cannot be steady across seeds. The
``verify-suite`` workload therefore runs a fixed pool of suite seeds,
whole passes only, and the benchmark seed sets the order of the pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# absolute tolerance on dB values and update rates read back from the CSV
REFERENCE_TOL = 1e-6
VERIFY_POOL = tuple(range(8))
VERIFY_CHECKS = 13
RUNS = 100
WARM_UP_RUNS = 2


def _modules():
    """The package modules as currently imported (re-imported on each set-up)."""
    return (importlib.import_module("krrapsp"),
            importlib.import_module("krrapsp.experiments"),
            importlib.import_module("krrapsp.verify"))


def _sweep_config(seed: int):
    krrapsp, experiments, _ = _modules()
    specs = tuple(
        experiments.FilterSpec("krr-apsp", label=f"krr-D{rank}", options={
            "params": krrapsp.KrrParams(rank=rank, projections=4, error_dim=1, rho=0.15,
                                        refresh_period=10, step_size=0.03,
                                        forgetting=0.999)})
        for rank in (3, 5, 8))
    return experiments.ExperimentConfig(
        kind="sysid", scenario=krrapsp.SysIdConfig(n=50, snr_db=15.0),
        filters=specs, runs=RUNS, iters=200, seed=seed)


def _cdma_config(seed: int):
    krrapsp, experiments, _ = _modules()
    iters = 200
    params = krrapsp.KrrParams(rank=5, projections=5, error_dim=1, rho=0.1,
                               refresh_period=10, step_size=0.02, forgetting=0.999)
    return experiments.ExperimentConfig(
        kind="cdma",
        scenario=krrapsp.CdmaConfig(users=4, snr_db=10.0, interferer_amplitude=2.0,
                                    change_at=iters // 2, users_post=2),
        filters=(experiments.FilterSpec("krr-apsp", label="krr-q5",
                                        options={"params": params}),
                 experiments.FilterSpec("cgrrf", options={"rank": 5,
                                                          "refresh_period": 10})),
        runs=RUNS, iters=iters, seed=seed)


def _baselines_config(seed: int):
    krrapsp, experiments, _ = _modules()
    iters = 300
    return experiments.ExperimentConfig(
        kind="sysid",
        scenario=krrapsp.SysIdConfig(n=200, snr_db=20.0, change_at=iters // 2,
                                     change_mode="negate"),
        filters=(experiments.FilterSpec("nlms"),
                 experiments.FilterSpec("rls"),
                 experiments.FilterSpec("cgrrf", options={"rank": 8,
                                                          "refresh_period": 10})),
        runs=RUNS, iters=iters, seed=seed)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class MonteCarloJob:
    """One Monte-Carlo experiment; a repetition runs it and writes its CSV."""

    period = 1

    def __init__(self, name: str, config, out_dir: Path):
        _, self._experiments, _ = _modules()
        self.config = config
        self.metadata = self._experiments.config_metadata(config)
        self.csv_path = out_dir / f"{name}.csv"
        self.steps = config.runs * config.iters * len(config.filters)
        self.digest = None

    def warm_up(self):
        """Run a few trials of the experiment, untimed and unchecked."""
        self._experiments.run_experiment(dataclasses.replace(self.config, runs=WARM_UP_RUNS))

    def rep(self, index: int):
        # module attribute lookups, so the traced run reaches the wrappers
        records = self._experiments.run_experiment(self.config)
        self._experiments.write_csv(records, str(self.csv_path), self.metadata)

    def summary(self) -> dict:
        """Digest, per-filter rows and window values of the written CSV."""
        experiments = self._experiments
        data = self.csv_path.read_bytes()
        _, records = experiments.read_csv(str(self.csv_path))
        rows = {}
        for rec in records:
            mine = rows.setdefault(rec.algorithm, [])
            if rec.k != len(mine):
                raise ValueError(f"{rec.algorithm}: row k={rec.k} out of order")
            mine.append(rec)
        iters = self.config.iters
        windows = {"pre": (int(0.4 * iters), iters // 2),
                   "post": (int(0.9 * iters), iters)}
        out = {"digest": hashlib.sha256(data).hexdigest(), "rows": rows, "filters": {}}
        for spec in self.config.filters:
            vals = {}
            for wname, (lo, hi) in windows.items():
                vals[f"{wname}.mse_db"] = experiments.steady_state_db(
                    records, spec.label, lo, hi)
                if self.config.kind == "sysid":
                    vals[f"{wname}.mismatch_db"] = experiments.steady_state_db(
                        records, spec.label, lo, hi, "mismatch_db")
                vals[f"{wname}.update_rate"] = experiments.mean_update_rate(
                    records, spec.label, lo, hi)
            out["filters"][spec.label] = vals
        return out

    def check(self, reference: dict | None) -> list:
        """Problems found in the latest repetition's output (empty if none).

        Sets ``digest`` to the CSV's digest, so that repetitions of the same
        seed can be compared.
        """
        self.digest = None
        try:
            summ = self.summary()
        except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
            return [f"unreadable CSV: {exc}"]
        self.digest = summ["digest"]
        problems = []
        iters = self.config.iters
        for label, rows in summ["rows"].items():
            if len(rows) != iters:
                problems.append(f"{label}: {len(rows)} rows, expected {iters}")
                continue
            for rec in rows:
                # no bound on mse_db: CGRRF at N=200 has warm-up transients
                # above 50 dB on some seeds, which are program output
                bad = (not math.isfinite(rec.mse_db)
                       or not 0.0 <= rec.update_rate <= 1.0
                       or not (math.isfinite(rec.mults) and rec.mults >= 0.0)
                       or (self.config.kind == "sysid") != math.isfinite(rec.mismatch_db))
                if bad:
                    problems.append(f"{label}: row out of range {rec}")
                    break
        labels = {spec.label for spec in self.config.filters}
        if set(summ["rows"]) != labels:
            problems.append(f"CSV filters {sorted(summ['rows'])} != {sorted(labels)}")
        if reference is not None:
            for label, vals in reference.items():
                got = summ["filters"].get(label, {})
                for key, want in vals.items():
                    have = got.get(key)
                    if have is None or not abs(have - want) <= REFERENCE_TOL:
                        problems.append(f"{label} {key}: {have} != reference {want}")
        return problems

    def reference_entry(self) -> dict:
        return self.summary()["filters"]


class VerifyJob:
    """Whole passes of ``verify.run_all`` over a fixed pool of suite seeds."""

    period = len(VERIFY_POOL)

    def __init__(self, seed: int):
        _, _, self._verify = _modules()
        start = seed % len(VERIFY_POOL)
        self.order = VERIFY_POOL[start:] + VERIFY_POOL[:start]
        self.steps = None
        self.digest = None
        self._last = None

    def warm_up(self):
        """Run the suite once on the first seed of the pool, untimed and unchecked."""
        self._verify.run_all(self.order[0])

    def rep(self, index: int):
        suite_seed = self.order[index % len(self.order)]
        self._last = (suite_seed, self._verify.run_all(suite_seed))

    def check(self, reference: dict | None) -> list:
        suite_seed, results = self._last
        verdicts = {r.name: bool(r.passed) for r in results}
        problems = []
        if len(results) != VERIFY_CHECKS or len(verdicts) != VERIFY_CHECKS:
            problems.append(f"suite seed {suite_seed}: {len(results)} checks, "
                            f"expected {VERIFY_CHECKS}")
        failed = sorted(name for name, ok in verdicts.items() if not ok)
        if failed:
            problems.append(f"suite seed {suite_seed}: failed checks {failed}")
        want = (reference or {}).get(str(suite_seed))
        if want is not None and want != verdicts:
            problems.append(f"suite seed {suite_seed}: verdicts differ from reference")
        return problems

    def reference_entry(self) -> dict:
        suite_seed, results = self._last
        return {str(suite_seed): {r.name: bool(r.passed) for r in results}}


MONTE_CARLO = {
    "sysid-rank-sweep": _sweep_config,
    "cdma-dynamic": _cdma_config,
    "baselines-n200": _baselines_config,
}
WORKLOADS = (*MONTE_CARLO, "verify-suite")


def build(name: str, seed: int, out_dir: Path):
    """Construct the job of a workload from the benchmark seed."""
    if name == "verify-suite":
        return VerifyJob(seed)
    return MonteCarloJob(name, MONTE_CARLO[name](seed), out_dir)


def reference_for(name: str, seed: int) -> dict | None:
    """Stored reference of a workload at a seed, or None when none is stored."""
    if name == "verify-suite":
        # every suite seed of the pool has stored verdicts
        return load_reference().get(name)
    return load_reference().get(name, {}).get(str(seed))
