"""Fixed-seed outputs checked bit for bit against a committed digest table.

``digests.json`` maps a fingerprint of the numerical environment to the
sha256 of each output row: ``repr(run_all(S))`` and
``format_report(run_all(S))`` for suite seeds 0-3, and ``csv[<name>]``, the
trace ``format_csv(run_experiment(cfg), config_metadata(cfg))`` of each
small config of ``CSV_CONFIGS`` (or, for ``CLI_RUNS``, what ``cli.main``
prints). Together the configs cover both scenarios and their changes, all
four filters, KRR-APSP with r in {1, 3} and q in {1, 4}, Toeplitz and full
statistics, a three-member family and the ``--count-mults`` header. The
bits depend on the BLAS build and the CPU (FMA in small dots, gemv against
gemm), so the fingerprint names numpy's version, its BLAS and that BLAS's
version, the SIMD extensions numpy found and the machine; on a fingerprint
the table does not hold, the test skips and names it. One BLAS thread and
two give the same rows, so the thread count is not part of it.

``PYTHONPATH=src python tests/test_digests.py`` writes the current
fingerprint's rows. A change that rewrites rows of an existing fingerprint
changes the outputs, and must say why.
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from krrapsp import CdmaConfig, KrrParams, SysIdConfig, cli
from krrapsp.experiments import (
    ExperimentConfig,
    FilterSpec,
    config_metadata,
    format_csv,
    run_experiment,
)
from krrapsp.verify import format_report, run_all

TABLE = Path(__file__).with_name("digests.json")
SEEDS = range(4)


def _krr(rank: int, q: int, r: int, rho: float) -> FilterSpec:
    params = KrrParams(rank=rank, projections=q, error_dim=r, rho=rho, refresh_period=10,
                       step_size=0.5, forgetting=0.99)
    return FilterSpec("krr-apsp", f"krr-d{rank}-q{q}-r{r}", {"params": params})


CSV_CONFIGS = {
    # a three-member family (D 3/5/8) on Toeplitz statistics; the system flips its sign
    "sysid-family": ExperimentConfig(
        kind="sysid", scenario=SysIdConfig(n=16, snr_db=15.0, change_at=150),
        filters=tuple(_krr(rank, 4, 1, 0.15) for rank in (3, 5, 8)), runs=3, iters=260,
        seed=3),
    # every filter; a fresh system after the change
    "sysid-all-filters": ExperimentConfig(
        kind="sysid", scenario=SysIdConfig(n=12, snr_db=20.0, fir_len=8, change_at=100,
                                           change_mode="fresh"),
        filters=(_krr(4, 1, 3, 0.05), FilterSpec("cgrrf", options={"rank": 4}),
                 FilterSpec("nlms", options={"step_size": 0.3}),
                 FilterSpec("rls", options={"forgetting": 0.99})),
        runs=3, iters=200, seed=5),
    # full statistics, signature-initialized filters, a user change
    "cdma-user-change": ExperimentConfig(
        kind="cdma", scenario=CdmaConfig(users=4, snr_db=12.0, interferer_amplitude=2.0,
                                         change_at=90, users_post=3),
        filters=(_krr(5, 4, 3, 0.01), _krr(3, 1, 1, 0.01),
                 FilterSpec("cgrrf", options={"rank": 5, "forgetting": 0.99}),
                 FilterSpec("nlms", options={"step_size": 0.1}), FilterSpec("rls")),
        runs=2, iters=180, seed=7),
}
CLI_RUNS = {
    "cli-count-mults": ["sysid", "--N", "10", "--runs", "2", "--iters", "120", "--seed", "4",
                        "--filter", "krr-apsp", "--filter", "cgrrf", "--filter", "nlms",
                        "--filter", "rls", "--D", "3", "--change-at", "60", "--count-mults"],
}


def fingerprint() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return f"numpy {np.__version__}, configuration unknown, {platform.machine()}"
    blas = config["Build Dependencies"]["blas"]
    simd = ",".join(config["SIMD Extensions"]["found"])
    return (f"numpy {np.__version__}, {blas['name']} {blas['version']}, "
            f"SIMD {simd}, {platform.machine()}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows(seed: int) -> dict:
    results = run_all(seed)
    return {f"{name}[{seed}]": _sha256(text)
            for name, text in (("verify.run_all.repr", repr(results)),
                               ("verify.format_report", format_report(results)))}


def csv_row(name: str) -> dict:
    if name in CLI_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(CLI_RUNS[name]) == 0
        text = out.getvalue()
    else:
        config = CSV_CONFIGS[name]
        text = format_csv(run_experiment(config), config_metadata(config))
    return {f"csv[{name}]": _sha256(text)}


def _table() -> dict:
    """The current fingerprint's rows; skips when the table holds none."""
    key = fingerprint()
    table = json.loads(TABLE.read_text()).get(key)
    if table is None:
        pytest.skip(f"no digests for {key}")
    return table


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_outputs_match_the_table(seed):
    table = _table()
    got = rows(seed)
    assert got == {name: table[name] for name in got}


@pytest.mark.parametrize("name", [*CSV_CONFIGS, *CLI_RUNS])
def test_csv_traces_match_the_table(name):
    table = _table()
    got = csv_row(name)
    assert got == {key: table[key] for key in got}


if __name__ == "__main__":
    tables = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    tables[fingerprint()] = {k: v for seed in SEEDS for k, v in rows(seed).items()}
    for name in [*CSV_CONFIGS, *CLI_RUNS]:
        tables[fingerprint()].update(csv_row(name))
    TABLE.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
