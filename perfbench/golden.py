"""Record the artifact digests that the benchmark's correctness gate expects.

    python3 perfbench/golden.py [--workload crowd ...]

Run from the root of a checkout whose outputs are the reference. For every
workload and scenario instance it runs `plural run` once in a fresh
interpreter and stores the sha256 of the five artifacts in golden.json.
A change that alters outputs on purpose re-records them and says why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from pathlib import Path

import workloads
from run import HERE, Bench, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    path = HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    work = HERE / "_work" / f"golden-{os.getpid()}"
    try:
        for workload in args.workload or sorted(workloads.WORKLOADS):
            for seed in range(workloads.INSTANCES):
                work.mkdir(parents=True, exist_ok=True)
                bench = Bench(Path.cwd(), work, workload, seed, None, None)
                out = work / "out"
                result = bench.child("run", str(bench.scenario), str(out))
                if result["exit_code"] != 0:
                    raise SystemExit(f"{workload} instance {seed}: plural run failed")
                golden.setdefault(workload, {})[str(seed)] = digests(out)
                print(workload, seed, f"{result['run_s']:.2f}s", flush=True)
                shutil.rmtree(work)
                path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
