"""Fixed-seed outputs checked bit for bit against a committed digest table.

``digests.json`` maps a fingerprint of the numerical environment to the
sha256 of each output row: ``repr(run_all(S))`` and
``format_report(run_all(S))`` for suite seeds 0-3. The bits depend on the
BLAS build and the CPU (FMA in small dots, gemv against gemm), so the
fingerprint names numpy's version, its BLAS and that BLAS's version, the
SIMD extensions numpy found and the machine; on a fingerprint the table
does not hold, the test skips and names it. One BLAS thread and two give
the same rows, so the thread count is not part of it.

``PYTHONPATH=src python tests/test_digests.py`` writes the current
fingerprint's rows. A change that rewrites rows of an existing fingerprint
changes the outputs, and must say why.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from krrapsp.verify import format_report, run_all

TABLE = Path(__file__).with_name("digests.json")
SEEDS = range(4)


def fingerprint() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return f"numpy {np.__version__}, configuration unknown, {platform.machine()}"
    blas = config["Build Dependencies"]["blas"]
    simd = ",".join(config["SIMD Extensions"]["found"])
    return (f"numpy {np.__version__}, {blas['name']} {blas['version']}, "
            f"SIMD {simd}, {platform.machine()}")


def rows(seed: int) -> dict:
    results = run_all(seed)
    return {f"{name}[{seed}]": hashlib.sha256(text.encode()).hexdigest()
            for name, text in (("verify.run_all.repr", repr(results)),
                               ("verify.format_report", format_report(results)))}


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_outputs_match_the_table(seed):
    key = fingerprint()
    table = json.loads(TABLE.read_text()).get(key)
    if table is None:
        pytest.skip(f"no digests for {key}")
    got = rows(seed)
    assert got == {name: table[name] for name in got}


if __name__ == "__main__":
    tables = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    tables[fingerprint()] = {k: v for seed in SEEDS for k, v in rows(seed).items()}
    TABLE.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
