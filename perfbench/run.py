"""Benchmark of `plural run`: end-to-end cost, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload crowd --seed 0 --seconds 34 --trace 0

Run from the root of a checkout. The workload's scenario is generated from
scenarios/demo.json and the seed (see workloads.py) under perfbench/_work.
Every measurement is a fresh interpreter running perfbench/child.py against
the checkout's `src`, one at a time, with PLURAL_THREADS unset.

--trace 0 first makes one traced run, untimed, that warms the caches and
audits the scenario (see below). It then repeats the untraced run until
--seconds are spent in runs, reporting medians of `run_s`, `cpu_s` and
`peak_rss_mb`, plus `ok_frac`, the share of all attempted runs (the
audited one included) that passed the correctness gate. After each run it
times one set-up (outside the --seconds budget) and reports the median as
`setup_s`, so set-up is sampled over the same stretch of time as the runs.
--trace 1 alternates untraced and traced runs for --seconds and reports
the medians of the tracer's per-layer metrics and `trace_overhead_s`,
traced minus untraced `run_s`.

Correctness gate, on every run: exit code 0 and the sha256 of all five
artifacts equal to the digests recorded in golden.json for the workload
and instance (with --rounds, equal to the first run's digests instead).
Traced runs must also pass `SocialFabric.audit()` and `Ledger.audit()`, and
every (round, citizen) feed in feeds.jsonl must have shares summing to 1.
Every miss counts as a failed run, in `failed` and in `ok_frac`.

Units are those BENCHMARK.json gives each metric.

The last line of stdout is the result JSON; the line before it records the
run conditions. Exit code 2 means the working directory is not a plural
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ARTIFACTS = ("metrics.csv", "feeds.jsonl", "ledger.csv", "fabric.json", "scorecards.csv")
CHILD_TIMEOUT_S = 120


def units(root: Path) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


def feed_share_errors(feeds: Path, tol: float = 1e-9) -> list[str]:
    totals: dict[tuple[int, int], float] = {}
    with open(feeds, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["round"], rec["citizen"])
            totals[key] = totals.get(key, 0.0) + rec["exposure_share"]
    return [f"feed {key} shares sum to {total!r}"
            for key, total in sorted(totals.items()) if abs(total - 1.0) > tol]


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy build, when it exposes one."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def conditions() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "machine": platform.machine()}


class Bench:
    """One generated scenario and the runs made of it.

    `expected` holds the artifact digests every run must reproduce; when it
    is None the first successful run sets them.
    """

    def __init__(self, root: Path, work: Path, workload: str, seed: int,
                 rounds: int | None, expected: dict[str, str] | None) -> None:
        self.root, self.work = root, work
        self.scenario = workloads.write_scenario(root, work, workload, seed, rounds)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PLURAL_THREADS", None)
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, *args: str) -> dict:
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(result), *args],
                              env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(result.read_text(encoding="utf-8"))

    def setup_s(self) -> float:
        return self.child("setup", str(self.scenario))["setup_s"]

    def run(self, trace: bool) -> dict | None:
        """One `plural run` through the gate; None when it failed."""
        self.attempted += 1
        out = self.work / f"out{self.attempted}"
        try:
            result = self.child("run", str(self.scenario), str(out),
                                *(["--trace"] if trace else []))
            errors = self._gate(result, out, trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            result, errors = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if errors:
            self.failures.append(f"run {self.attempted}: " + "; ".join(errors[:5]))
            return None
        print(f"run {self.attempted}{' traced' if trace else ''}: {result['run_s']:.4f} s",
              file=sys.stderr, flush=True)
        return result

    def _gate(self, result: dict, out: Path, trace: bool) -> list[str]:
        if result["exit_code"] != 0:
            return [f"plural run exited {result['exit_code']}"]
        got = digests(out)
        if self.expected is None:
            self.expected = got
        errors = [f"{name} digest {got[name][:12]} != {self.expected[name][:12]}"
                  for name in ARTIFACTS if got[name] != self.expected[name]]
        result["bytes_written"] = sum((out / n).stat().st_size for n in ARTIFACTS)
        if trace:
            errors += feed_share_errors(out / "feeds.jsonl")
            errors += [result["audit_error"]] if "audit_error" in result else []
        return errors


def measure(bench: Bench, trace: bool, seconds: float) -> dict[str, float]:
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    if not trace:
        bench.run(True)   # audits, compiles bytecode and warms caches; untimed
    spent = 0.0
    while True:
        lap = time.perf_counter()
        for rep in ([False, True] if trace else [False]):
            result = bench.run(rep)
            if result is not None:
                (traced if rep else untraced).append(result)
        lap = time.perf_counter() - lap
        spent += lap
        if not trace:
            setups.append(bench.setup_s())
        if spent + lap > seconds:
            break

    def med(rows: list[dict], key: str) -> float:
        return statistics.median(r[key] for r in rows) if rows else 0.0

    if not trace:
        return {"setup_s": statistics.median(setups),
                "run_s": med(untraced, "run_s"), "cpu_s": med(untraced, "cpu_s"),
                "peak_rss_mb": med(untraced, "peak_rss_mb")}
    layers = [r["layers"] for r in traced]
    metrics = {key: statistics.median(row[key] for row in layers)
               for key in (layers[0] if layers else {})}
    metrics["cli.bytes_written"] = med(traced, "bytes_written")
    metrics["trace_overhead_s"] = med(traced, "run_s") - med(untraced, "run_s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the round count (smoke test; checks "
                             "determinism instead of recorded digests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in (workloads.BASE_SCENARIO, Path("src/plural/cli.py"))
               if not (root / p).is_file()]
    if missing:
        print(f"not a plural checkout: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    unit = units(root)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        expected = None
        if args.rounds is None:
            golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
            expected = golden[args.workload][str(workloads.instance(args.seed))]
        bench = Bench(root, work, args.workload, args.seed, args.rounds, expected)
        metrics = measure(bench, bool(args.trace), args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - len(bench.failures) / bench.attempted
    for failure in bench.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"conditions": conditions(), "workload": args.workload,
                      "instance": workloads.instance(args.seed)}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
