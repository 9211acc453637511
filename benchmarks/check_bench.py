"""Self-tests of the benchmark; not part of the package's test suite.

Run from the root of a source checkout::

    python3 -m pytest benchmarks/check_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import krrapsp  # noqa: E402
import krrapsp.complexity  # noqa: E402,F401
import krrapsp.experiments  # noqa: E402,F401
import krrapsp.verify  # noqa: E402,F401
import workloads  # noqa: E402
from layertrace import ROOT_SPAN  # noqa: E402
from layertrace import Tracer  # noqa: E402

# per-layer metrics that are exact counts (or ratios of them)
COUNT_UNITS = ("count", "ratio")


@pytest.fixture
def out_dir():
    path = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _package_namespaces() -> dict:
    """Every attribute of every package module and class, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name != "krrapsp" and not name.startswith("krrapsp."):
            continue
        for attr, val in vars(module).items():
            snap[(name, attr)] = val
            if isinstance(val, type) and val.__module__.startswith("krrapsp"):
                for cattr, cval in vars(val).items():
                    snap[(name, attr, cattr)] = cval
    return snap


def _traced_rep(name: str, seed: int, out_dir: Path, keep_spans: bool = False):
    job = workloads.build(name, seed, out_dir)
    with Tracer(keep_spans=keep_spans) as tracer:
        tracer.root(job.rep, 0)
    return job, tracer


def test_wrappers_are_removed_after_a_traced_run(out_dir):
    before = _package_namespaces()
    job = workloads.build("cdma-dynamic", 0, out_dir)
    with Tracer() as tracer:
        assert krrapsp.filters.krylov_basis is not before[("krrapsp.linalg", "krylov_basis")]
        tracer.root(job.rep, 0)
    after = _package_namespaces()
    # running may add caches (copy.copy stores __slotnames__); nothing may change
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert krrapsp.filters.krylov_basis is krrapsp.linalg.krylov_basis
    assert krrapsp.estimation.as_vector is krrapsp.linalg.as_vector


def test_spans_nest_and_self_times_fit_in_the_wall_time(out_dir):
    _, tracer = _traced_rep("cdma-dynamic", 0, out_dir, keep_spans=True)
    spans = {span_id: (parent, name, start, end)
             for span_id, parent, name, start, end in tracer.spans}
    roots = [s for s in spans.values() if s[0] == 0]
    assert len(roots) == 1 and roots[0][1] == ROOT_SPAN
    wall = roots[0][3] - roots[0][2]
    for parent, name, start, end in spans.values():
        assert start <= end
        if parent:
            _, _, pstart, pend = spans[parent]
            assert pstart <= start and end <= pend, name
    assert min(tracer.self_time.values()) >= -1e-9
    aggregated = tracer.total["linalg.as_vector"]
    assert sum(tracer.self_time.values()) + aggregated <= wall * (1 + 1e-9)


@pytest.mark.parametrize("name", ["cdma-dynamic", "baselines-n200"])
def test_per_layer_counts_repeat_exactly(name, out_dir):
    first = _traced_rep(name, 3, out_dir)[1].metrics(1)
    second = _traced_rep(name, 3, out_dir)[1].metrics(1)
    counts = {k for k, (_, unit) in first.items() if unit in COUNT_UNITS}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["linalg.as_vector_calls"][0] > 0
    assert first["scenarios.samples"][0] > 0


def test_same_seed_gives_the_same_csv(out_dir):
    digests = []
    for _ in range(2):
        job = workloads.build("cdma-dynamic", 5, out_dir)
        job.rep(0)
        digests.append(job.summary()["digest"])
    assert digests[0] == digests[1]


def test_another_seed_changes_the_inputs(out_dir):
    summaries = []
    for seed in (0, 1):
        job = workloads.build("cdma-dynamic", seed, out_dir)
        job.rep(0)
        summaries.append(job.summary())
    assert summaries[0]["digest"] != summaries[1]["digest"]
    assert summaries[0]["filters"]["cgrrf"] != summaries[1]["filters"]["cgrrf"]


def test_monte_carlo_workloads_run_the_served_trial_count(out_dir):
    for name in workloads.MONTE_CARLO:
        assert workloads.build(name, 0, out_dir).config.runs == workloads.RUNS == 100


def test_default_seed_matches_the_stored_reference(out_dir):
    job = workloads.build("cdma-dynamic", workloads.DEFAULT_SEED, out_dir)
    reference = workloads.reference_for("cdma-dynamic", workloads.DEFAULT_SEED)
    assert reference is not None
    job.rep(0)
    assert job.check(reference) == []
    label, values = next(iter(reference.items()))
    key = next(iter(values))
    wrong = {label: {key: values[key] + 1.0}}
    assert job.check(wrong) != []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {k: unit for k, (_, unit) in Tracer().metrics(1).items()}
    emitted["trace.overhead_frac"] = "ratio"
    assert per_layer == emitted
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_rel", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_package_sources():
    bare = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "baselines-n200",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
