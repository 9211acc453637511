"""Monte-Carlo experiment harness with CSV traces.

Runs independent trials of a scenario against a set of filters, averages
the per-iteration metrics across trials in trial-index order, and writes
the trace as a flat CSV whose header echoes the full configuration.

KRR-APSP, CGRRF and NLMS run all trials in lockstep, one batch of
:mod:`krrapsp.filters` per filter, fed from every trial's scenario stream
at once. RLS is the only filter outside that pass: it runs one trial
after another, because its N x N inverse correlation for 100 trials at
N = 200 would hold 32 MB. Each trial's scenario is seeded and consumed as
in a trial-by-trial run, so the choice of path does not change the
output.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .filters import CgrrfBatch, KrrApspBatch, NlmsBatch, Rls
from .linalg import stacked_dot
from .scenarios import CdmaConfig, CdmaScenario, SysIdConfig, SysIdScenario

ALGORITHMS = ("krr-apsp", "cgrrf", "nlms", "rls")
CSV_COLUMNS = ("k", "algorithm", "mse_db", "mismatch_db", "update_rate", "mults")


@dataclass(frozen=True)
class FilterSpec:
    """One algorithm entry of an experiment.

    ``label`` names the CSV rows; ``options`` are construction keywords
    specific to the algorithm (for example ``{"step_size": 0.03}`` for
    NLMS or a ``KrrParams`` under ``"params"``).
    """

    algorithm: str
    label: str = ""
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.label:
            object.__setattr__(self, "label", self.algorithm)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte-Carlo experiment."""

    kind: str  # "sysid" | "cdma"
    scenario: object  # SysIdConfig | CdmaConfig (seed field is per-trial base)
    filters: tuple
    runs: int = 100
    iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sysid", "cdma"):
            raise ValueError("kind must be sysid or cdma")
        if self.runs < 1 or self.iters < 1:
            raise ValueError("runs and iters must be at least 1")
        if not self.filters:
            raise ValueError("at least one filter is required")
        labels = [f.label for f in self.filters]
        if len(set(labels)) != len(labels):
            raise ValueError("filter labels must be unique")


@dataclass
class MetricsRecord:
    """Ensemble-averaged metrics of one iteration of one algorithm."""

    k: int
    algorithm: str
    mse_db: float
    mismatch_db: float
    update_rate: float
    mults: float


def _make_scenario(config: ExperimentConfig, trial_seed: int):
    base = config.scenario
    if config.kind == "sysid":
        return SysIdScenario(SysIdConfig(
            n=base.n, snr_db=base.snr_db, fir_len=base.fir_len,
            change_at=base.change_at, change_mode=base.change_mode,
            seed=trial_seed))
    return CdmaScenario(CdmaConfig(
        users=base.users, snr_db=base.snr_db,
        interferer_amplitude=base.interferer_amplitude,
        change_at=base.change_at, users_post=base.users_post, seed=trial_seed))


def trial_seeds(seed: int, runs: int) -> np.ndarray:
    """Per-trial 63-bit seeds derived from the master seed."""
    return np.random.SeedSequence(int(seed)).generate_state(runs, dtype=np.uint64) >> 1


def measure_multiplications(filt, samples):
    """Drive a filter over samples, collecting per-iteration mult counts.

    Returns ``(per_step, per_category)``: the recurring count of every
    step and the cumulative per-category totals (statistics, regressor
    maintenance, filter update, basis construction, rebasing). The
    windowed average of the recurring counts plus the amortized ``basis``
    charge reconciles against the closed forms in
    :mod:`krrapsp.complexity` within the slack documented there.
    """
    per_step = []
    for s in samples:
        per_step.append(filt.step(s.u, s.d).mults)
    return per_step, dict(filt.mult_totals)


def _scenario_shape(config: ExperimentConfig, scenario):
    """Filter length and statistics mode of one trial."""
    if config.kind == "sysid":
        return scenario.config.n, "toeplitz"
    return scenario.n, "fullsym"


METRICS = ("se", "mis", "upd", "mults")


def _make_batch(spec: FilterSpec, n: int, mode: str, runs: int, signatures=None):
    opts = dict(spec.options)
    if spec.algorithm == "nlms":
        return NlmsBatch(n, runs, **opts)
    init = signatures if opts.pop("init_from_signature", signatures is not None) else None
    if spec.algorithm == "cgrrf":
        return CgrrfBatch(n, runs, mode=mode, init_vector=init, **opts)
    return KrrApspBatch(opts.pop("params"), n, runs, mode=mode, h0=init, **opts)


def _run_lockstep(config: ExperimentConfig, specs, seeds, sums: dict) -> None:
    """Run the specs (no RLS among them) over all trials at once, adding into ``sums``.

    At every step the trials' values are added in trial-index order
    (``np.add.accumulate`` adds strictly left to right), as
    :func:`run_experiment` adds per-trial rows.
    """
    scenarios = [_make_scenario(config, int(s)) for s in seeds]
    n, mode = _scenario_shape(config, scenarios[0])
    signatures = (np.stack([sc.signature for sc in scenarios])
                  if config.kind == "cdma" else None)
    runs = len(seeds)
    filters = {spec.label: _make_batch(spec, n, mode, runs, signatures) for spec in specs}
    streams = [sc.samples(config.iters) for sc in scenarios]
    u = np.empty((runs, n))
    d = np.empty(runs)
    truth = np.empty((runs, n)) if config.kind == "sysid" else None
    for k in range(config.iters):
        for i, stream in enumerate(streams):
            sample = next(stream)
            u[i] = sample.u
            d[i] = sample.d
            if truth is not None:
                truth[i] = sample.truth_h
        for label, filt in filters.items():
            out = filt.step(u, d)
            err = d - out.y
            if truth is not None:
                diff = truth - out.h_full
                mis = stacked_dot(diff, diff) / stacked_dot(truth, truth)
            else:
                mis = np.full(runs, math.nan)
            for key, vals in zip(METRICS, (err * err, mis, out.updated, out.mults)):
                sums[label][key][k] = np.add.accumulate(vals.astype(float))[-1]


def _run_trial(config: ExperimentConfig, trial_seed: int, specs) -> dict:
    """Run the RLS specs over one trial; returns its per-step metrics."""
    scenario = _make_scenario(config, trial_seed)
    n, _ = _scenario_shape(config, scenario)
    filters = {spec.label: Rls(n, **spec.options) for spec in specs}
    iters = config.iters
    acc = {label: {key: np.zeros(iters) for key in METRICS} for label in filters}
    for sample in scenario.samples(iters):
        k = sample.k
        for label, filt in filters.items():
            out = filt.step(sample.u, sample.d)
            err = sample.d - out.y
            a = acc[label]
            a["se"][k] = err * err
            if sample.truth_h is not None:
                diff = sample.truth_h - out.h_full
                a["mis"][k] = float(diff @ diff) / float(sample.truth_h @ sample.truth_h)
            else:
                a["mis"][k] = math.nan
            a["upd"][k] = 1.0 if out.updated else 0.0
            a["mults"][k] = out.mults
    return acc


def _to_db(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


def run_experiment(config: ExperimentConfig) -> list:
    """Run all trials and return per-iteration ensemble-averaged records.

    RLS filters run trial by trial, all others step all trials in
    lockstep; either way the ensemble sums add the trials in trial-index
    order.
    """
    seeds = trial_seeds(config.seed, config.runs)
    sums = {spec.label: {key: np.zeros(config.iters) for key in METRICS}
            for spec in config.filters}
    rls = [spec for spec in config.filters if spec.algorithm == "rls"]
    lockstep = [spec for spec in config.filters if spec.algorithm != "rls"]
    if lockstep:
        _run_lockstep(config, lockstep, seeds, sums)
    if rls:
        for s in seeds:  # fixed order
            trial = _run_trial(config, int(s), rls)
            for spec in rls:
                for key in METRICS:
                    sums[spec.label][key] += trial[spec.label][key]

    records = []
    runs = float(config.runs)
    for spec in config.filters:
        label = spec.label
        se, mis, upd, mults = (sums[label][key] for key in METRICS)
        mse_db = _to_db(se / runs)
        mis_db = _to_db(mis / runs) if not np.all(np.isnan(mis)) else np.full(config.iters, math.nan)
        for k in range(config.iters):
            records.append(MetricsRecord(
                k=k, algorithm=label, mse_db=float(mse_db[k]),
                mismatch_db=float(mis_db[k]), update_rate=float(upd[k] / runs),
                mults=float(mults[k] / runs)))
    return records


def config_metadata(config: ExperimentConfig) -> dict:
    """Flat key=value view of a configuration for CSV provenance."""
    meta = {"version": __version__, "kind": config.kind,
            "runs": str(config.runs), "iters": str(config.iters),
            "seed": str(config.seed)}
    scenario = _make_scenario(config, 0)
    for key, val in scenario.serialize().items():
        if key not in ("kind", "noise_std"):
            meta[f"scenario.{key}"] = val
    for spec in config.filters:
        prefix = f"filter.{spec.label}"
        meta[prefix] = spec.algorithm
        for key, val in sorted(spec.options.items()):
            if key == "params":
                p = val
                meta[f"{prefix}.params"] = (
                    f"rank={p.rank} projections={p.projections} "
                    f"error_dim={p.error_dim} rho={p.rho} "
                    f"refresh_period={p.refresh_period} step_size={p.step_size} "
                    f"forgetting={p.forgetting}")
            else:
                meta[f"{prefix}.{key}"] = str(val)
    return meta


def _format_value(x: float) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.10g}"
    return str(x)


def format_csv(records, metadata: dict | None = None) -> str:
    """The text of a trace: ``# key=value`` header lines, the columns, the records."""
    lines = []
    for key, val in (metadata or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(",".join(CSV_COLUMNS))
    for rec in records:
        lines.append(",".join([
            str(rec.k), rec.algorithm, _format_value(rec.mse_db),
            _format_value(rec.mismatch_db), _format_value(rec.update_rate),
            _format_value(rec.mults)]))
    return "\n".join(lines) + "\n"


def write_csv(records, path: str, metadata: dict | None = None) -> None:
    """Write :func:`format_csv` text atomically; a failing write leaves no partial file."""
    text = format_csv(records, metadata)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path: str):
    """Parse a trace written by :func:`write_csv`.

    Returns ``(metadata, records)``.
    """
    metadata = {}
    records = []
    with open(path) as fh:
        header_seen = False
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    metadata[key] = val
                continue
            if not header_seen:
                if line != ",".join(CSV_COLUMNS):
                    raise ValueError(f"unexpected CSV header: {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            records.append(MetricsRecord(
                k=int(parts[0]), algorithm=parts[1], mse_db=float(parts[2]),
                mismatch_db=float(parts[3]), update_rate=float(parts[4]),
                mults=float(parts[5])))
    return metadata, records


def steady_state_db(records, algorithm: str, first: int, last: int,
                    metric: str = "mse_db") -> float:
    """dB-average of a metric over the iteration window [first, last)."""
    vals = [getattr(r, metric) for r in records
            if r.algorithm == algorithm and first <= r.k < last]
    if not vals:
        raise ValueError(f"no records for {algorithm} in [{first}, {last})")
    linear = np.mean([10.0 ** (v / 10.0) for v in vals])
    return float(10.0 * np.log10(linear))


def mean_update_rate(records, algorithm: str, first: int, last: int) -> float:
    vals = [r.update_rate for r in records
            if r.algorithm == algorithm and first <= r.k < last]
    if not vals:
        raise ValueError(f"no records for {algorithm} in [{first}, {last})")
    return float(np.mean(vals))
