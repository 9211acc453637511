"""Write ``reference.json``: the outputs the benchmark checks against.

Run from the root of a source checkout, on a commit whose outputs are
trusted::

    python3 benchmarks/make_reference.py --seeds 0-15

For each Monte-Carlo workload and seed it stores the per-filter values
read back from one repetition's CSV; for ``verify-suite`` it stores the
check verdicts of every suite seed of the pool.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    out_dir = Path(tempfile.mkdtemp(prefix=".bench-", dir=HERE.parent))
    reference = {}
    try:
        for name in workloads.MONTE_CARLO:
            for seed in seeds:
                job = workloads.build(name, seed, out_dir)
                job.rep(0)
                reference.setdefault(name, {})[str(seed)] = job.reference_entry()
                print(name, seed, flush=True)
        job = workloads.build("verify-suite", 0, out_dir)
        for index in range(job.period):
            job.rep(index)
            reference.setdefault("verify-suite", {}).update(job.reference_entry())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
