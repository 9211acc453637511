import contextlib
import io
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import krrapsp
import krrapsp.cli
from krrapsp import CdmaConfig, CdmaScenario, KrrParams, Rls, SysIdConfig, SysIdScenario
from krrapsp.estimation import _StatsStack
from krrapsp.filters import CgrrfBatch, NlmsBatch, _KrrFamily
from krrapsp.linalg import krylov_basis_stack
from krrapsp.experiments import (
    ALGORITHMS,
    ExperimentConfig,
    FilterSpec,
    MetricsRecord,
    _lockstep_samples,
    config_metadata,
    format_csv,
    mean_update_rate,
    read_csv,
    run_experiment,
    steady_state_db,
    trial_seeds,
    write_csv,
)
from krrapsp.scenarios import SNR_DB_FLOOR

from oracles import trial_by_trial_records


def tiny_config(runs=3, iters=40, kind="sysid"):
    params = KrrParams(rank=3, projections=2, error_dim=1, rho=0.1,
                       refresh_period=10, step_size=0.5)
    scenario = (SysIdConfig(n=12, snr_db=15.0, seed=0) if kind == "sysid"
                else CdmaConfig(users=3, snr_db=12.0, seed=0))
    return ExperimentConfig(
        kind=kind, scenario=scenario,
        filters=(FilterSpec("krr-apsp", options={"params": params}),
                 FilterSpec("nlms", options={"step_size": 0.3})),
        runs=runs, iters=iters, seed=42)


class TestRunExperiment:
    def test_record_layout(self):
        config = tiny_config()
        records = run_experiment(config)
        assert len(records) == config.iters * len(config.filters)
        for rec in records[:config.iters]:
            assert rec.algorithm == "krr-apsp"
        ks = [r.k for r in records if r.algorithm == "nlms"]
        assert ks == list(range(config.iters))

    def test_deterministic_across_calls(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        for ra, rb in zip(a, b):
            assert (ra.k, ra.algorithm) == (rb.k, rb.algorithm)
            assert ra.mse_db == rb.mse_db
            assert ra.mismatch_db == rb.mismatch_db
            assert ra.update_rate == rb.update_rate
            assert ra.mults == rb.mults

    def test_cdma_mismatch_is_nan(self):
        records = run_experiment(tiny_config(kind="cdma"))
        assert all(math.isnan(r.mismatch_db) for r in records)

    def test_trial_seeds_distinct(self):
        seeds = trial_seeds(7, 64)
        assert len(set(int(s) for s in seeds)) == 64

    def test_incompatible_filter_surfaced_before_trials(self):
        params = KrrParams(rank=40)
        config = ExperimentConfig(
            kind="sysid", scenario=SysIdConfig(n=12, seed=0),
            filters=(FilterSpec("krr-apsp", options={"params": params}),),
            runs=2, iters=10, seed=0)
        with pytest.raises(ValueError):
            run_experiment(config)

    @pytest.mark.parametrize("kind, scenario", [
        ("cdma", SysIdConfig()), ("sysid", CdmaConfig()), ("sysid", None), ("cdma", None)],
        ids=["cdma-sysid", "sysid-cdma", "sysid-none", "cdma-none"])
    def test_scenario_of_another_kind_rejected(self, kind, scenario):
        with pytest.raises(ValueError, match="scenario"):
            ExperimentConfig(kind=kind, scenario=scenario, filters=(FilterSpec("nlms"),))

    @pytest.mark.parametrize("kwargs", [
        dict(runs=2.5), dict(runs=0), dict(iters=3.0), dict(iters=0), dict(seed=1.5),
        dict(seed=-1), dict(seed="1"),
    ])
    def test_non_integral_counts_rejected(self, kwargs):
        # seed=1.5 would run as seed 1 under a header that reads seed=1.5
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            replace(tiny_config(), **kwargs)

    def test_integer_counts_keep_their_text(self):
        config = replace(tiny_config(), runs=np.int64(2), seed=np.uint64(5))
        meta = config_metadata(config)
        assert (meta["runs"], meta["seed"]) == ("2", "5")

    @pytest.mark.parametrize("algorithm, options", [
        ("krr-apsp", {}),
        ("krr-apsp", {"params": {"rank": 3}}),
        ("krr-apsp", {"params": KrrParams(rank=3), "mode": "fullsym"}),
        ("cgrrf", {"refresh_period": 5}),
        ("cgrrf", {"rank": 3, "init_vector": None}),
        ("nlms", {"step": 0.1}),
        ("rls", {"gamma": 0.99}),
    ], ids=["krr-no-params", "krr-params-dict", "krr-mode", "cgrrf-no-rank",
            "cgrrf-init-vector", "nlms-step", "rls-gamma"])
    def test_malformed_filter_spec_rejected(self, algorithm, options):
        # at construction, before any scenario is built
        with pytest.raises(ValueError):
            FilterSpec(algorithm, options=options)


def record_table(records):
    return (np.array([(r.k, r.algorithm) for r in records]),
            np.array([(r.mse_db, r.mismatch_db, r.update_rate, r.mults) for r in records]))


LOCKSTEP_CONFIGS = {
    "sysid_all_four": ExperimentConfig(
        kind="sysid", scenario=SysIdConfig(n=12, snr_db=15.0, change_at=40,
                                           change_mode="negate", seed=0),
        filters=(FilterSpec("krr-apsp", options={"params": KrrParams(
                     rank=3, projections=3, rho=0.05, refresh_period=5, step_size=0.5)}),
                 FilterSpec("cgrrf", options={"rank": 3, "refresh_period": 4}),
                 FilterSpec("cgrrf", label="cgrrf-exp",
                            options={"rank": 2, "refresh_period": 3, "forgetting": 0.97}),
                 FilterSpec("nlms", options={"step_size": 0.3}),
                 FilterSpec("rls", options={"forgetting": 0.99})),
        runs=4, iters=80, seed=5),
    "cdma_krr_cgrrf_nlms": ExperimentConfig(
        kind="cdma", scenario=CdmaConfig(users=3, snr_db=10.0, change_at=50,
                                         users_post=2, seed=0),
        filters=(FilterSpec("krr-apsp", options={"params": KrrParams(
                     rank=3, projections=3, rho=0.1, refresh_period=5, step_size=0.1)}),
                 FilterSpec("cgrrf", options={"rank": 3, "refresh_period": 5}),
                 FilterSpec("cgrrf", label="cgrrf-zero-init",
                            options={"rank": 3, "init_from_signature": False}),
                 FilterSpec("nlms", options={"step_size": 0.2})),
        runs=3, iters=90, seed=6),
}


SWEEP = ExperimentConfig(
    kind="sysid", scenario=SysIdConfig(n=12, snr_db=15.0, change_at=50,
                                       change_mode="negate", seed=0),
    filters=tuple(FilterSpec("krr-apsp", label=f"krr-D{params.rank}", options={"params": params})
                  for params in (KrrParams(rank=2, projections=3, rho=0.05, refresh_period=5,
                                           step_size=0.5),
                                 KrrParams(rank=3, projections=2, error_dim=3, rho=0.05,
                                           refresh_period=5, step_size=0.5),
                                 KrrParams(rank=5, projections=2, error_dim=2, rho=0.02,
                                           refresh_period=5, step_size=1.0))),
    runs=4, iters=90, seed=5)
# a length that is no multiple of the chunk and a change inside a chunk
LOCKSTEP_CONFIGS["sysid_change_mid_chunk"] = replace(
    LOCKSTEP_CONFIGS["sysid_all_four"], runs=3, iters=150,
    scenario=SysIdConfig(n=12, snr_db=15.0, change_at=70, change_mode="fresh", seed=0))
LOCKSTEP_CONFIGS["cdma_change_mid_chunk"] = replace(
    LOCKSTEP_CONFIGS["cdma_krr_cgrrf_nlms"], runs=3, iters=150,
    scenario=CdmaConfig(users=4, snr_db=10.0, change_at=70, users_post=3, seed=0))
# RLS alone (no lockstep pass), two filters per trial, a change inside a chunk
LOCKSTEP_CONFIGS["sysid_rls_only"] = replace(
    LOCKSTEP_CONFIGS["sysid_change_mid_chunk"], filters=(
        FilterSpec("rls", options={"forgetting": 0.99}),
        FilterSpec("rls", label="rls-delta", options={"delta": 0.5})))
# RLS on CDMA, whose mismatch is NaN, beside NLMS in the lockstep pass
LOCKSTEP_CONFIGS["cdma_rls_nlms"] = replace(
    LOCKSTEP_CONFIGS["cdma_change_mid_chunk"], filters=(
        FilterSpec("rls", options={"forgetting": 0.995}),
        FilterSpec("nlms", options={"step_size": 0.2})))
# two KRR-APSP families (forgetting 0.999 and 0.99) beside CGRRF and NLMS
LOCKSTEP_CONFIGS["sysid_two_families"] = replace(SWEEP, filters=SWEEP.filters + (
    FilterSpec("krr-apsp", label="krr-fast", options={"params": KrrParams(
        rank=4, projections=2, rho=0.05, refresh_period=5, step_size=0.5, forgetting=0.99)}),
    FilterSpec("cgrrf", options={"rank": 3, "refresh_period": 5}),
    FilterSpec("nlms", options={"step_size": 0.3})))

# CDMA's full statistics: a CGRRF listed before two KRR-APSP families
# (forgetting 0.999 and 0.99) and a CGRRF with forgetting, all in one group
LOCKSTEP_CONFIGS["cdma_stats_group"] = replace(
    LOCKSTEP_CONFIGS["cdma_change_mid_chunk"], filters=(
        FilterSpec("cgrrf", options={"rank": 3, "refresh_period": 5}),
        FilterSpec("krr-apsp", options={"params": KrrParams(
            rank=3, projections=3, rho=0.1, refresh_period=5, step_size=0.1)}),
        FilterSpec("krr-apsp", label="krr-fast", options={"params": KrrParams(
            rank=2, projections=2, rho=0.1, refresh_period=5, step_size=0.2,
            forgetting=0.99)}),
        FilterSpec("cgrrf", label="cgrrf-exp",
                   options={"rank": 2, "refresh_period": 3, "forgetting": 0.97})))


# the rank-sweep shape: three ranks of one (q, r), one family
RANK_SWEEP = replace(SWEEP, filters=tuple(
    FilterSpec("krr-apsp", label=f"krr-D{rank}", options={"params": replace(
        SWEEP.filters[0].options["params"], rank=rank)}) for rank in (2, 3, 5)))


def test_family_records_equal_each_spec_alone():
    # RANK_SWEEP's specs form one family and SWEEP's one family per (q, r);
    # run alone each is a family of one
    for config in (RANK_SWEEP, SWEEP):
        got = record_table(run_experiment(config))
        alone = [record_table(run_experiment(replace(config, filters=(spec,))))
                 for spec in config.filters]
        np.testing.assert_array_equal(got[0], np.concatenate([a[0] for a in alone]))
        np.testing.assert_array_equal(got[1], np.concatenate([a[1] for a in alone]))


def test_a_family_builds_once_per_chunk_and_refresh(monkeypatch):
    # N = 12, 4 trials: one chunk. The first build comes at step N - 1 and a
    # refresh at every step k = 1 mod 5 from then on (also at k = 11)
    ranks = []
    monkeypatch.setattr(krrapsp.filters, "krylov_basis_stack", lambda mats, p, rank: (
        ranks.append(rank) or krylov_basis_stack(mats, p, rank)))
    builds = 1 + sum(k % 5 == 1 for k in range(11, RANK_SWEEP.iters))
    run_experiment(RANK_SWEEP)
    assert ranks == [5] * builds  # one build at the largest rank serves D = 2, 3, 5
    ranks.clear()
    run_experiment(SWEEP)  # three (q, r): three families, each with its own builds
    assert sorted(ranks) == [2] * builds + [3] * builds + [5] * builds


@pytest.mark.parametrize("spec", [
    FilterSpec("krr-apsp", options={"params": KrrParams(rank=40)}),  # rank above N
    FilterSpec("cgrrf", options={"rank": 3, "refresh_period": 0}),
    FilterSpec("nlms", options={"step_size": 5.0}),
    FilterSpec("rls", options={"forgetting": 2.0}),
], ids=lambda spec: spec.algorithm)
def test_bad_filter_option_raises_before_any_scenario_is_built(spec, monkeypatch):
    built = []
    for scenario_type in (SysIdScenario, CdmaScenario):
        init = scenario_type.__init__
        monkeypatch.setattr(scenario_type, "__init__",
                            lambda self, cfg, init=init: built.append(cfg.seed) or init(self, cfg))
    for name in ("sysid_all_four", "cdma_krr_cgrrf_nlms"):
        config = LOCKSTEP_CONFIGS[name]
        with pytest.raises(ValueError):
            run_experiment(replace(config, filters=config.filters + (replace(spec, label="bad"),)))
    assert built == []


def test_grouped_records_equal_each_spec_alone(monkeypatch):
    # the four statistics stacks form one group, which forms u u^T once a
    # step; run alone each spec is a group of one
    config = LOCKSTEP_CONFIGS["cdma_stats_group"]
    folds = []
    fold = _StatsStack._fold

    def counted(self, u):
        folds.append(len(self.group))
        fold(self, u)

    monkeypatch.setattr(_StatsStack, "_fold", counted)
    got = record_table(run_experiment(config))
    assert folds == [4] * config.iters
    alone = [record_table(run_experiment(replace(config, filters=(spec,))))
             for spec in config.filters]
    np.testing.assert_array_equal(got[0], np.concatenate([a[0] for a in alone]))
    np.testing.assert_array_equal(got[1], np.concatenate([a[1] for a in alone]))


@pytest.mark.parametrize("name", sorted(LOCKSTEP_CONFIGS))
def test_records_equal_trial_by_trial_loop(name):
    config = LOCKSTEP_CONFIGS[name]
    got, want = (record_table(records) for records in
                 (run_experiment(config), trial_by_trial_records(config)))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("name", ["sysid_all_four", "cdma_rls_nlms"])
def test_each_trial_scenario_is_built_once(name, monkeypatch):
    # both passes (RLS beside lockstep filters) read the same scenarios
    config, built = LOCKSTEP_CONFIGS[name], []
    for scenario_type in (SysIdScenario, CdmaScenario):
        init = scenario_type.__init__
        monkeypatch.setattr(scenario_type, "__init__",
                            lambda self, cfg, init=init: built.append(cfg.seed) or init(self, cfg))
    run_experiment(config)
    assert built == [int(s) for s in trial_seeds(config.seed, config.runs)]


def test_bad_rls_option_rejected_before_the_lockstep_pass(monkeypatch):
    steps = []
    for batch in (_KrrFamily, CgrrfBatch, NlmsBatch):
        monkeypatch.setattr(batch, "step",
                            lambda *a, step=batch.step: steps.append(1) or step(*a))
    config = LOCKSTEP_CONFIGS["sysid_all_four"]
    bad = replace(config, filters=config.filters[:-1] + (
        FilterSpec("rls", options={"forgetting": 1.5}),))
    with pytest.raises(ValueError, match="forgetting"):
        run_experiment(bad)
    assert steps == []
    run_experiment(config)
    assert steps  # the counters see the batches step


def test_rls_pass_holds_one_trial_at_a_time():
    # an inverse correlation and its buffer are 2 x 320 KB at N = 200; held
    # for every trial they would take about 10 MiB
    config = ExperimentConfig(
        kind="sysid", scenario=SysIdConfig(n=200, change_at=100),
        filters=(FilterSpec("rls"),), runs=16, iters=150, seed=3)
    run_experiment(replace(config, runs=1))  # first-use allocations
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak


@pytest.mark.parametrize("field", ["u", "d"])
def test_rls_pass_checks_a_chunk_before_stepping_on_it(monkeypatch, field):
    # a non-finite sample at step 67 stops the RLS pass with the error of
    # Rls.step, before any filter has stepped on its chunk (steps 64-69,
    # cut at the change)
    chunks = SysIdScenario.chunks

    def poisoned(self, count, buffer=None):
        for chunk in chunks(self, count, buffer):
            if chunk.start == 64:
                bad = getattr(chunk, field).copy()
                bad[3] = math.nan
                chunk = chunk._replace(**{field: bad})
            yield chunk

    update, stepped = Rls._update, []
    monkeypatch.setattr(SysIdScenario, "chunks", poisoned)
    monkeypatch.setattr(Rls, "_update", lambda filt, v, d: stepped.append(d) or update(filt, v, d))
    config = replace(LOCKSTEP_CONFIGS["sysid_rls_only"], runs=1)
    with pytest.raises(ValueError) as harness:
        run_experiment(config)
    assert len(stepped) == 64 * len(config.filters)
    u, d = (np.full(12, math.nan), 1.0) if field == "u" else (np.ones(12), math.nan)
    with pytest.raises(ValueError) as step:
        Rls(12).step(u, d)
    assert str(harness.value) == str(step.value)


@pytest.mark.parametrize("field", ["u", "d"])
@pytest.mark.parametrize("name", ["sysid_change_mid_chunk", "sysid_rls_only"])
def test_overflowing_sample_stops_the_run_before_any_filter_steps_on_it(monkeypatch, name,
                                                                          field):
    # a finite sample at step 67 whose u . u or d * d overflows: the lockstep
    # pass stops with the batches as a 67-step run leaves them, and the RLS
    # pass before any filter has stepped on its chunk (steps 64-69)
    config = LOCKSTEP_CONFIGS[name]
    found, families = [], krrapsp.experiments.lockstep_families
    monkeypatch.setattr(krrapsp.experiments, "lockstep_families",
                        lambda batches: found.append(batches) or families(batches))
    run_experiment(replace(config, iters=67))
    clean = [pickle.dumps(batches) for batches in found]
    chunks = SysIdScenario.chunks

    def poisoned(self, count, buffer=None):
        for chunk in chunks(self, count, buffer):
            if chunk.start == 64 and field == "d":
                chunk = chunk._replace(d=np.where(np.arange(len(chunk.d)) == 3, 1e200, chunk.d))
            elif chunk.start == 64 and buffer is None:  # the RLS pass reads chunk.u
                chunk = chunk._replace(u=np.where(np.arange(len(chunk.u))[:, None] == 3,
                                                  1e200, chunk.u))
            elif chunk.start == 64:  # the lockstep pass reads the buffer's windows
                buffer[0][3 + self.n - 1] = 1e200  # the newest entry of step 67's regressor
            yield chunk

    update, stepped = Rls._update, []
    monkeypatch.setattr(SysIdScenario, "chunks", poisoned)
    monkeypatch.setattr(Rls, "_update", lambda filt, v, d: stepped.append(d) or update(filt, v, d))
    found.clear()
    with pytest.raises(ValueError, match="not finite"):
        run_experiment(config)
    assert [pickle.dumps(batches) for batches in found] == clean
    # the RLS pass runs trial by trial: trial 0 stops at its chunk from step 64
    assert len(stepped) == (64 * len(config.filters) if name == "sysid_rls_only" else 0)


def test_rls_overflowing_gain_stops_the_run():
    # P = I / 1e-307 makes v . P v overflow at N = 50: a ValueError, not rows
    # of mismatch 0 dB from a filter that never adapts
    config = ExperimentConfig(
        kind="sysid", scenario=SysIdConfig(n=50),
        filters=(FilterSpec("rls", options={"delta": 1e-307}),), runs=2, iters=20)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        run_experiment(config)


@pytest.mark.parametrize("scenario_type, config", [
    (SysIdScenario, SysIdConfig(n=50, change_at=100)),
    (CdmaScenario, CdmaConfig(users=4, change_at=100, users_post=2)),
], ids=["sysid", "cdma"])
def test_lockstep_feeding_holds_only_its_buffer(scenario_type, config):
    # the rank-sweep and dynamic-CDMA shapes: 100 trials of 12000 steps, fed
    # through a chunk and a change; beside the stacked chunk buffer the feed
    # holds per-step and per-chunk stacks and each stream's draw state
    # (an (R, m, N) regressor stack would be 2.4 MiB more at N = 50)
    scenarios = [scenario_type(replace(config, seed=s)) for s in range(100)]
    buffer_bytes = scenarios[0].chunk_buffer(100)[0].nbytes
    tracemalloc.start()
    try:
        feed = _lockstep_samples(scenarios, 12000)
        steps = [next(feed)[1][0] for _ in range(200)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) == 200
    assert peak - buffer_bytes < 2 ** 20, (peak, buffer_bytes)


class TestCsv:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        records = run_experiment(config)
        path = tmp_path / "trace.csv"
        write_csv(records, str(path), config_metadata(config))
        meta, parsed = read_csv(str(path))
        assert meta["kind"] == "sysid"
        assert meta["version"]
        assert len(parsed) == len(records)
        for ra, rb in zip(records, parsed):
            assert ra.algorithm == rb.algorithm and ra.k == rb.k
            assert np.isclose(ra.mse_db, rb.mse_db, atol=1e-9) or (
                math.isnan(ra.mse_db) and math.isnan(rb.mse_db))

    def test_byte_identical_reruns(self, tmp_path):
        config = tiny_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(config), str(p1), config_metadata(config))
        write_csv(run_experiment(config), str(p2), config_metadata(config))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path), {"kind": "sysid"})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# kind=sysid"
        assert lines[1].startswith("k,algorithm")
        assert len(lines) == 2

    def test_unwritable_path_leaves_nothing(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError):
            write_csv([MetricsRecord(0, "nlms", -1.0, -1.0, 0.0, 1.0)],
                      str(target), {})
        assert not target.exists()
        assert not list(tmp_path.iterdir())

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        # the text is written, then moving it onto a directory fails
        target = tmp_path / "out.csv"
        target.mkdir()
        with pytest.raises(OSError):
            write_csv([MetricsRecord(0, "nlms", -1.0, -1.0, 0.0, 1.0)], str(target), {})
        assert list(tmp_path.iterdir()) == [target] and not list(target.iterdir())

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# kind=sysid\nk,algorithm,mse_db\n0,nlms,-1.0\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_csv(str(path))

    def test_metadata_echoes_filters(self):
        meta = config_metadata(tiny_config())
        assert meta["filter.krr-apsp"] == "krr-apsp"
        assert "rank=3" in meta["filter.krr-apsp.params"]
        assert meta["scenario.n"] == "12"

    def test_metadata_names_non_uniform_weights(self):
        base = tiny_config()
        params = base.filters[0].options["params"]
        lines = {}
        for weights in (None, (0.5, 0.5), (0.75, 0.25)):
            spec = FilterSpec("krr-apsp", options={"params": replace(params, weights=weights)})
            meta = config_metadata(replace(base, filters=(spec,)))
            lines[weights] = meta["filter.krr-apsp.params"]
        # uniform weights, given or not, leave the line as it was
        assert lines[None] == lines[(0.5, 0.5)] == config_metadata(base)["filter.krr-apsp.params"]
        assert "weights" not in lines[None]
        assert lines[(0.75, 0.25)] == lines[None] + " weights=(0.75,0.25)"


HEADER_CONFIGS = {
    "sysid": ExperimentConfig(
        kind="sysid",
        scenario=SysIdConfig(n=12, snr_db=20.0, change_at=30, change_mode="fresh", seed=7),
        filters=(FilterSpec("krr-apsp", label="krr", options={"params": KrrParams(
                     rank=3, projections=2, error_dim=2, rho=0.1, weights=(0.75, 0.25))}),
                 FilterSpec("cgrrf", options={"rank": 3, "refresh_period": 5}),
                 FilterSpec("nlms", options={"step_size": 0.3}),
                 FilterSpec("rls", options={"forgetting": 0.99})),
        runs=3, iters=40, seed=9),
    "cdma": ExperimentConfig(
        kind="cdma", scenario=CdmaConfig(users=4, snr_db=math.inf, interferer_amplitude=2.0,
                                         change_at=100, users_post=2, seed=3),
        filters=(FilterSpec("krr-apsp", options={"params": KrrParams(rank=5,
                                                                     projections=5)}),),
        runs=2, iters=200),
}

# the headers after the version line, as written when the metadata was
# read off a scenario built for it
HEADERS = {
    "sysid": """\
# kind=sysid
# runs=3
# iters=40
# seed=9
# scenario.n=12
# scenario.snr_db=20.0
# scenario.fir_len=30
# scenario.change_at=30
# scenario.change_mode=fresh
# scenario.seed=0
# scenario.rng=pcg64-seedsequence
# filter.krr=krr-apsp
# filter.krr.params=rank=3 projections=2 error_dim=2 rho=0.1 refresh_period=10 \
step_size=1.0 forgetting=0.999 weights=(0.75,0.25)
# filter.cgrrf=cgrrf
# filter.cgrrf.rank=3
# filter.cgrrf.refresh_period=5
# filter.nlms=nlms
# filter.nlms.step_size=0.3
# filter.rls=rls
# filter.rls.forgetting=0.99
""",
    "cdma": """\
# kind=cdma
# runs=2
# iters=200
# seed=0
# scenario.users=4
# scenario.snr_db=inf
# scenario.interferer_amplitude=2.0
# scenario.change_at=100
# scenario.users_post=2
# scenario.seed=0
# scenario.rng=pcg64-seedsequence
# scenario.asynchrony=chip-offset-partial-symbols
# filter.krr-apsp=krr-apsp
# filter.krr-apsp.params=rank=5 projections=5 error_dim=1 rho=0.0 refresh_period=10 \
step_size=1.0 forgetting=0.999
""",
}


@pytest.mark.parametrize("kind", sorted(HEADERS))
def test_metadata_header_is_pinned_and_builds_no_scenario(kind, monkeypatch):
    def refuse(self, config):
        raise AssertionError("config_metadata built a scenario")

    monkeypatch.setattr(krrapsp.SysIdScenario, "__init__", refuse)
    monkeypatch.setattr(krrapsp.CdmaScenario, "__init__", refuse)
    text = format_csv([], config_metadata(HEADER_CONFIGS[kind]))
    assert text == (f"# version={krrapsp.__version__}\n" + HEADERS[kind]
                    + "k,algorithm,mse_db,mismatch_db,update_rate,mults\n")


class TestFilterSpec:
    def test_options_are_read_only(self):
        spec = FilterSpec("nlms", options={"step_size": 0.3})
        with pytest.raises(TypeError):
            spec.options["step"] = 0.1
        assert dict(spec.options) == {"step_size": 0.3}

    def test_options_are_copied(self):
        options = {"step_size": 0.3}
        spec = FilterSpec("nlms", options=options)
        options["step"] = 0.1
        assert dict(spec.options) == {"step_size": 0.3}
        records = run_experiment(replace(tiny_config(runs=1, iters=5), filters=(spec,)))
        assert len(records) == 5


class TestWindows:
    def test_steady_state_window_average(self):
        records = [MetricsRecord(k, "x", -10.0, 0.0, 0.5, 1.0) for k in range(20)]
        assert abs(steady_state_db(records, "x", 10, 20) + 10.0) <= 1e-12
        assert mean_update_rate(records, "x", 0, 20) == 0.5
        with pytest.raises(ValueError):
            steady_state_db(records, "y", 0, 20)


def run_python(*args):
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(krrapsp.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})


def test_runtime_imports_numpy_only():
    # pyproject declares only numpy; importing scipy would also add about
    # 28 MiB of resident memory to every run. The package's dataclasses are
    # the five configs, whose API is dataclasses.replace and fields: every
    # import builds a dataclass's methods anew, so records are NamedTuples
    proc = run_python("-c", (
        "import sys, dataclasses, krrapsp, krrapsp.experiments, krrapsp.verify, "
        "krrapsp.complexity, krrapsp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(sorted(k for m, mod in sys.modules.items() if m.split('.')[0] == 'krrapsp' "
        "for k, v in vars(mod).items() if dataclasses.is_dataclass(v) and v.__module__ == m))"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['CdmaConfig', 'ExperimentConfig', 'FilterSpec', 'KrrParams', 'SysIdConfig']"]


def test_metrics_record_repr():
    # the string the record printed as a dataclass
    assert repr(MetricsRecord(3, "krr-D5", -12.5, -math.inf, 0.75, 1234.0)) == (
        "MetricsRecord(k=3, algorithm='krr-D5', mse_db=-12.5, mismatch_db=-inf, "
        "update_rate=0.75, mults=1234.0)")


class TestCli:
    def run_cli(self, *args):
        """``krrapsp.cli.main`` in this process: its exit code and what it wrote."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = krrapsp.cli.main(list(args))
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code
        return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())

    def test_filter_choices_are_the_algorithms(self):
        proc = self.run_cli("sysid", "--filter", "mswf")
        assert proc.returncode == 2
        assert "choose from " + ", ".join(map(repr, ALGORITHMS)) in proc.stderr

    def test_sysid_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = self.run_cli("sysid", "--runs", "2", "--iters", "30",
                            "--N", "10", "--D", "2", "--seed", "1",
                            "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        meta, records = read_csv(str(out))
        assert meta["kind"] == "sysid"
        assert records

    def test_cdma_runs(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = self.run_cli("cdma", "--runs", "1", "--iters", "40",
                            "--users", "3", "--D", "2", "--out", str(out),
                            "--count-mults")
        assert proc.returncode == 0, proc.stderr
        meta, _ = read_csv(str(out))
        assert any(key.startswith("mults-total") for key in meta)

    @pytest.mark.parametrize("command", [
        ("sysid", "--N", "10", "--filter", "krr-apsp", "--filter", "rls"),
        ("cdma", "--users", "3", "--filter", "cgrrf", "--filter", "nlms"),
    ], ids=["sysid", "cdma"])
    def test_stdout_is_the_out_file(self, command, tmp_path):
        args = (*command, "--runs", "2", "--iters", "30", "--D", "2", "--seed", "4",
                "--count-mults")
        out = tmp_path / "run.csv"
        to_file = self.run_cli(*args, "--out", str(out))
        to_stdout = self.run_cli(*args)
        assert to_file.returncode == to_stdout.returncode == 0, to_stdout.stderr
        assert to_file.stdout == ""
        assert to_stdout.stdout == out.read_text()

    def test_config_error_exit_code(self):
        # in a process of its own: `python -m krrapsp.cli` exits with main's code
        proc = run_python("-m", "krrapsp.cli", "cdma", "--users", "99")
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    def test_non_finite_snr_exit_code(self):
        proc = self.run_cli("cdma", "--snr-db", "nan", "--runs", "1", "--iters", "5")
        assert proc.returncode == 2
        assert "snr_db" in proc.stderr

    @pytest.mark.parametrize("command", ["sysid", "cdma"])
    @pytest.mark.parametrize("snr_db", ["3090", "-3300", "-3080"])
    def test_extreme_snr_exit_code(self, command, snr_db):
        # 10 ** (snr_db / 10) overflows or is zero, or (-3080) its noise
        # overflows the filters: a configuration error
        proc = self.run_cli(command, "--snr-db", snr_db, "--runs", "1", "--iters", "5")
        assert proc.returncode == 2, proc.stderr
        assert "snr_db" in proc.stderr

    @pytest.mark.parametrize("command", [("sysid", "--N", "5"), ("cdma", "--users", "3")],
                             ids=["sysid", "cdma"])
    def test_snr_floor_run_is_finite(self, command, tmp_path):
        out = tmp_path / "run.csv"
        proc = self.run_cli(*command, "--snr-db", str(SNR_DB_FLOOR), "--D", "2",
                            "--runs", "2", "--iters", "60", "--filter", "krr-apsp",
                            "--filter", "cgrrf", "--filter", "nlms", "--filter", "rls",
                            "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, records = read_csv(str(out))
        assert len(records) == 4 * 60
        for rec in records:
            assert math.isfinite(rec.mse_db) and math.isfinite(rec.mults), rec
            assert math.isfinite(rec.mismatch_db) == (command[0] == "sysid"), rec

    @pytest.mark.parametrize("command", [("sysid",), ("cdma", "--users-post", "2")],
                             ids=["sysid", "cdma"])
    def test_negative_change_at_exit_code(self, command):
        proc = self.run_cli(*command, "--change-at", "-5", "--runs", "1", "--iters", "5")
        assert proc.returncode == 2, proc.stderr
        assert "change_at" in proc.stderr

    def test_change_mode_without_change_exit_code(self):
        # it would run with no change, yet the header would record change_mode
        proc = self.run_cli("sysid", "--change-mode", "fresh", "--runs", "1", "--iters", "5")
        assert proc.returncode == 2, proc.stderr
        assert "--change-mode needs --change-at" in proc.stderr
        assert proc.stdout == ""
        # without the flag a run records the default mode
        proc = self.run_cli("sysid", "--N", "5", "--D", "2", "--runs", "1", "--iters", "3")
        assert "# scenario.change_mode=negate\n" in proc.stdout, proc.stderr

    def test_users_post_without_change_exit_code(self):
        # it would run with no change, yet the header would record users_post
        proc = self.run_cli("cdma", "--users-post", "3", "--runs", "1", "--iters", "5")
        assert proc.returncode == 2, proc.stderr
        assert "users_post and change_at must be given together" in proc.stderr

    def test_error_length_3_csv_is_the_library_run(self):
        proc = self.run_cli("sysid", "--r", "3", "--q", "2", "--N", "10", "--D", "3",
                            "--runs", "2", "--iters", "40")
        assert proc.returncode == 0, proc.stderr
        params = KrrParams(rank=3, projections=2, error_dim=3, rho=0.15,
                           refresh_period=10, step_size=0.03, forgetting=0.999)
        config = ExperimentConfig(
            kind="sysid", scenario=SysIdConfig(n=10, snr_db=15.0),
            filters=(FilterSpec("krr-apsp", options={"params": params}),),
            runs=2, iters=40)
        assert proc.stdout == format_csv(run_experiment(config), config_metadata(config))

    def test_irrelevant_flag_rejected(self):
        proc = self.run_cli("cdma", "--N", "31")
        assert proc.returncode == 2
        proc = self.run_cli("sysid", "--users", "4")
        assert proc.returncode == 2

    def test_verify_subcommand_passes(self):
        proc = self.run_cli("verify", "--seed", "0")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout
        assert "FAIL" not in proc.stdout
