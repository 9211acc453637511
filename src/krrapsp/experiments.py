"""Monte-Carlo experiment harness with CSV traces.

Runs independent trials of a scenario against a set of filters, averages
the per-iteration metrics across trials in trial-index order, and writes
the trace as a flat CSV whose header echoes the full configuration.

KRR-APSP, CGRRF and NLMS run all trials in lockstep, one batch of
:mod:`krrapsp.filters` per filter, fed from every trial's scenario stream
at once: each trial's chunk is written once into one buffer for all
trials, and the steps are read row by row from that stack. Which batches
share state is :func:`krrapsp.filters.lockstep_families`'s rule: the
KRR-APSP specs of one forgetting factor, refresh period and ``(q, r)`` form
a family that steps as one (one statistics stack, one sample ring, one
Krylov build at the family's largest rank and one reduced pass serve them
all), and with full N x N statistics (CDMA) every statistics stack of the
pass (one per family, one per CGRRF) joins one statistics group, which
forms each step's outer products ``u u^T`` once for all of them. RLS is the
only filter outside that pass: it runs one trial after another, because
its N x N inverse correlation for 100 trials at N = 200 would hold 32 MB.
It reads each trial's chunk stream as well, checks a chunk once and steps
``Rls._update`` on it, and adds the chunk's metrics into the ensemble sums
at once. Each trial's scenario is built once, and both passes read it: a
scenario's stream replays from step 0 at every read, as in a
trial-by-trial run, so neither the passes nor the families nor the group
change the output.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import __version__
from .filters import (CgrrfBatch, KrrApspBatch, KrrParams, NlmsBatch, Rls, _checked_stack,
                      lockstep_families)
from .linalg import check_int, stacked_dot
from .scenarios import CdmaConfig, CdmaScenario, SysIdConfig, SysIdScenario, config_items

# the construction keywords each algorithm takes in FilterSpec.options
_OPTIONS = {"krr-apsp": {"params", "init_from_signature"},
            "cgrrf": {"rank", "refresh_period", "forgetting", "init_from_signature"},
            "nlms": {"step_size"}, "rls": {"forgetting", "delta"}}
ALGORITHMS = tuple(_OPTIONS)
# the scenario config, scenario class and statistics mode of each experiment kind
_SCENARIOS = {"sysid": (SysIdConfig, SysIdScenario, "toeplitz"),
              "cdma": (CdmaConfig, CdmaScenario, "fullsym")}
CSV_COLUMNS = ("k", "algorithm", "mse_db", "mismatch_db", "update_rate", "mults")


@dataclass(frozen=True)
class FilterSpec:
    """One algorithm entry of an experiment.

    ``label`` names the CSV rows; ``options`` are construction keywords
    specific to the algorithm (for example ``{"step_size": 0.03}`` for
    NLMS). KRR-APSP needs a ``KrrParams`` under ``"params"`` and CGRRF a
    ``"rank"``; an unknown key raises ``ValueError`` here, before any
    scenario is built. ``options`` is kept as a read-only copy, so neither
    the spec nor a later change of the caller's dict can alter it.
    """

    algorithm: str
    label: str = ""
    options: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if set(self.options) - _OPTIONS[self.algorithm]:
            raise ValueError(f"{self.algorithm} takes only {sorted(_OPTIONS[self.algorithm])}")
        if self.algorithm == "krr-apsp" and not isinstance(self.options.get("params"), KrrParams):
            raise ValueError("a krr-apsp filter needs a KrrParams under 'params'")
        if self.algorithm == "cgrrf" and "rank" not in self.options:
            raise ValueError("a cgrrf filter needs a 'rank'")
        if not self.label:
            object.__setattr__(self, "label", self.algorithm)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte-Carlo experiment."""

    kind: str  # "sysid" | "cdma"
    scenario: object  # SysIdConfig | CdmaConfig; each trial replaces its seed
    filters: tuple
    runs: int = 100
    iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _SCENARIOS:
            raise ValueError("kind must be sysid or cdma")
        config_type = _SCENARIOS[self.kind][0]
        if not isinstance(self.scenario, config_type):
            raise ValueError(f"a {self.kind} experiment needs a {config_type.__name__} "
                             f"scenario, got {type(self.scenario).__name__}")
        check_int(self.runs, "runs")
        check_int(self.iters, "iters")
        check_int(self.seed, "seed", 0)
        if not self.filters:
            raise ValueError("at least one filter is required")
        labels = [f.label for f in self.filters]
        if len(set(labels)) != len(labels):
            raise ValueError("filter labels must be unique")


class MetricsRecord(NamedTuple):
    """Ensemble-averaged metrics of one iteration of one algorithm."""

    k: int
    algorithm: str
    mse_db: float
    mismatch_db: float
    update_rate: float
    mults: float


def trial_seeds(seed: int, runs: int) -> np.ndarray:
    """Per-trial 63-bit seeds derived from the master seed."""
    return np.random.SeedSequence(int(seed)).generate_state(runs, dtype=np.uint64) >> 1


METRICS = ("se", "mis", "upd", "mults")  # the rows of each label's ensemble sums


def _make_batch(spec: FilterSpec, n: int, mode: str, runs: int, signatures=None):
    opts = dict(spec.options)
    if spec.algorithm == "nlms":
        return NlmsBatch(n, runs, **opts)
    init = signatures if opts.pop("init_from_signature", signatures is not None) else None
    if spec.algorithm == "cgrrf":
        return CgrrfBatch(n, runs, mode=mode, init_vector=init, **opts)
    return KrrApspBatch(opts["params"], n, runs, mode=mode, h0=init)


def _errors(d, y, truth, truth_sq, h):
    """Squared errors and mismatches (NaN without a truth) of outputs ``y``, coefficients ``h``.

    Of a step of R trials (``(R, N)`` truths) or a chunk of one trial (one
    ``(N,)`` truth, ``(m, N)`` coefficients): the shapes broadcast.
    """
    err = d - y
    if truth is None:
        return err * err, np.full(err.shape, math.nan)
    diff = truth - h
    return err * err, stacked_dot(diff, diff) / truth_sq


def _lockstep_samples(scenarios, iters: int):
    """Every step's ``(u, d, truth, truth . truth)``, stacked over the trials.

    Each trial's stream writes its chunks into its row of one buffer; the
    outputs and truths (None for CDMA) are stacked once per chunk, and each
    step's regressors are copied into one ``(R, N)`` array that the next
    step overwrites.
    """
    bufs, regressors = scenarios[0].chunk_buffer(len(scenarios))
    streams = [sc.chunks(iters, row) for sc, row in zip(scenarios, zip(bufs, regressors))]
    u = np.empty((len(scenarios), regressors.shape[-1]))
    for chunk in zip(*streams):
        ds = np.stack([c.d for c in chunk], axis=1)  # a step's outputs are one row
        truth = truth_sq = None
        if chunk[0].truth is not None:
            truth = np.stack([c.truth for c in chunk])
            truth_sq = stacked_dot(truth, truth)
        for t, d in enumerate(ds):
            np.copyto(u, regressors[:, t])
            yield u, d, truth, truth_sq


def _run_lockstep(config: ExperimentConfig, specs, scenarios, sums: dict) -> None:
    """Run the specs (no RLS among them) over all trials' scenarios at once, adding into ``sums``.

    At every step the trials' values of each metric are added in
    trial-index order (``np.add.accumulate`` along a row adds strictly left
    to right), as a trial-by-trial run adds per-trial rows.
    """
    n, mode, runs = scenarios[0].n, _SCENARIOS[config.kind][2], len(scenarios)
    signatures = np.stack([sc.signature for sc in scenarios]) if config.kind == "cdma" else None
    filters = {spec.label: _make_batch(spec, n, mode, runs, signatures) for spec in specs}
    step = np.empty((len(METRICS), runs))  # one step's metrics of every trial
    families = lockstep_families(list(filters.values()))
    for k, (u, d, truth, truth_sq) in enumerate(_lockstep_samples(scenarios, config.iters)):
        outs = {member: out for family in families
                for member, out in zip(family.members, family.step(u, d))}
        for label, filt in filters.items():
            out = outs[filt] if filt in outs else filt.step(u, d)
            step[0], step[1] = _errors(d, out.y, truth, truth_sq, out.h_full)
            step[2], step[3] = out.updated, out.mults
            sums[label][:, k] = np.add.accumulate(step, axis=1)[:, -1]


def _run_rls(scenario, specs, iters: int, sums: dict) -> None:
    """Run the RLS specs over one trial's scenario, adding its per-step metrics into ``sums``.

    The trial's chunk stream is read chunk by chunk. A chunk is checked once,
    by ``Rls.step``'s rule, before any filter steps on it; each
    step's regressor is copied into one contiguous vector (a product over
    the reversed window view rounds differently) and the coefficients are
    kept in an ``(m, N)`` history, so the squared errors and mismatches are
    formed once per chunk and added into the chunk's columns of ``sums``.
    """
    n = scenario.n
    filters = [Rls(n, **spec.options) for spec in specs]
    v = np.empty(n)
    for chunk in scenario.chunks(iters):
        m = len(chunk.d)
        _checked_stack(chunk.u, chunk.d, m, n)
        ys, hs = np.empty((len(filters), m)), np.empty((len(filters), m, n))
        for t, d in enumerate(chunk.d.tolist()):
            np.copyto(v, chunk.u[t])
            for i, filt in enumerate(filters):
                ys[i, t] = filt._update(v, d)
                hs[i, t] = filt.h
        truth_sq = None if chunk.truth is None else float(chunk.truth @ chunk.truth)
        for spec, filt, y, h in zip(specs, filters, ys, hs):
            out = sums[spec.label][:, chunk.start:chunk.start + m]
            out[:2] += _errors(chunk.d, y, chunk.truth, truth_sq, h)
            out[2:] += [[1.0], [filt._mults]]  # every step updates and is charged alike


def run_experiment(config: ExperimentConfig) -> list:
    """Run all trials and return per-iteration ensemble-averaged records.

    Each spec's filter is first constructed once at the experiment's N, so
    a bad option raises before any scenario is built. Each trial's scenario
    is built once and read by both passes: every filter but RLS steps all
    trials in lockstep, then RLS runs trial by trial. Either way the
    ensemble sums add the trials in trial-index order.
    """
    _, scenario_type, mode = _SCENARIOS[config.kind]
    n = config.scenario.n if config.kind == "sysid" else CdmaScenario.n
    for spec in config.filters:
        if spec.algorithm == "rls":
            Rls(n, **spec.options)  # P waits for a first sample
        else:
            _make_batch(spec, n, mode, 1)
    scenarios = [scenario_type(replace(config.scenario, seed=int(s)))
                 for s in trial_seeds(config.seed, config.runs)]
    sums = {spec.label: np.zeros((len(METRICS), config.iters)) for spec in config.filters}
    rls = [spec for spec in config.filters if spec.algorithm == "rls"]
    lockstep = [spec for spec in config.filters if spec.algorithm != "rls"]
    if lockstep:
        _run_lockstep(config, lockstep, scenarios, sums)
    if rls:
        for scenario in scenarios:  # trial-index order
            _run_rls(scenario, rls, config.iters, sums)

    records = []
    for spec in config.filters:
        se, mis, upd, mults = sums[spec.label] / float(config.runs)
        with np.errstate(divide="ignore"):  # NaN stays NaN, zero reads -inf
            mse_db, mis_db = 10.0 * np.log10(se), 10.0 * np.log10(mis)
        records += [MetricsRecord(k, spec.label, float(mse_db[k]), float(mis_db[k]),
                                  float(upd[k]), float(mults[k])) for k in range(config.iters)]
    return records


def config_metadata(config: ExperimentConfig) -> dict:
    """Flat key=value view of a configuration for CSV provenance."""
    meta = {"version": __version__, "kind": config.kind, "runs": str(config.runs),
            "iters": str(config.iters), "seed": str(config.seed)}
    # the scenario's fields (its seed as 0: each trial replaces it) and the
    # constants of its class; no scenario is built
    scenario_items = {**config_items(replace(config.scenario, seed=0)),
                      **_SCENARIOS[config.kind][1].constants}
    for key, val in scenario_items.items():
        meta[f"scenario.{key}"] = val
    for spec in config.filters:
        prefix = f"filter.{spec.label}"
        meta[prefix] = spec.algorithm
        for key, val in sorted(spec.options.items()):
            if key == "params":  # every field in field order, the weights if not uniform
                items = [f"{f.name}={getattr(val, f.name)}"
                         for f in fields(val) if f.name != "weights"]
                if val.weights != replace(val, weights=None).weights:
                    items.append(f"weights=({','.join(map(str, val.weights))})")
                meta[f"{prefix}.params"] = " ".join(items)
            else:
                meta[f"{prefix}.{key}"] = str(val)
    return meta


def _format_value(x: float) -> str:
    return f"{x:.10g}" if isinstance(x, float) else str(x)  # NaN prints as "nan"


def format_csv(records, metadata: dict | None = None) -> str:
    """The text of a trace: ``# key=value`` header lines, the columns, the records."""
    lines = [f"# {key}={val}" for key, val in (metadata or {}).items()]
    lines.append(",".join(CSV_COLUMNS))
    lines += [",".join(_format_value(getattr(rec, c)) for c in CSV_COLUMNS) for rec in records]
    return "\n".join(lines) + "\n"


def write_csv(records, path: str, metadata: dict | None = None) -> None:
    """Write :func:`format_csv` text atomically; a failing write leaves no partial file."""
    text = format_csv(records, metadata)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path: str):
    """Parse a trace written by :func:`write_csv`; returns ``(metadata, records)``."""
    metadata, records, header = {}, [], ",".join(CSV_COLUMNS)
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, eq, val = line[1:].strip().partition("=")
                if eq:
                    metadata[key] = val
            elif line and header:  # the first other line is the header
                if line != header:
                    raise ValueError(f"unexpected CSV header: {line!r}")
                header = None
            elif line:
                k, alg, *vals = line.split(",")
                records.append(MetricsRecord(int(k), alg, *map(float, vals)))
    return metadata, records


def _window(records, algorithm: str, first: int, last: int, metric: str) -> list:
    vals = [getattr(r, metric) for r in records
            if r.algorithm == algorithm and first <= r.k < last]
    if not vals:
        raise ValueError(f"no records for {algorithm} in [{first}, {last})")
    return vals


def steady_state_db(records, algorithm: str, first: int, last: int,
                    metric: str = "mse_db") -> float:
    """dB-average of a metric over the iteration window [first, last)."""
    vals = _window(records, algorithm, first, last, metric)
    return float(10.0 * np.log10(np.mean([10.0 ** (v / 10.0) for v in vals])))


def mean_update_rate(records, algorithm: str, first: int, last: int) -> float:
    return float(np.mean(_window(records, algorithm, first, last, "update_rate")))
