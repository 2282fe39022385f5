"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout. It checks that the tracer restores every
attribute it patches, that each workload runs for two rounds through
run.py in both passes and reports exactly the metrics BENCHMARK.json names,
with their units, and that run.py refuses to run outside a checkout.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def snapshot(modules: dict) -> dict:
    state = {}
    for name, mod in modules.items():
        state[name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                state[f"{name}.{attr}"] = dict(vars(value))
    return state


def same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(a[k][x] is b[k][x] for x in a[k]) for k in a)


def tracer_restores() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import plural.cli  # noqa: F401  (install() imports every layer; do it first)
    import plural.sim
    from tracer import Tracer, plural_modules
    before = snapshot(plural_modules())
    original = plural.sim.score_round
    tracer = Tracer()
    tracer.install()
    check(plural.sim.score_round is not original, "tracer patches sim.score_round")
    tracer.restore()
    check(same(before, snapshot(plural_modules())),
          "tracer leaves the plural modules as it found them")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(SPEC["command"] + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def workloads_report_every_metric() -> None:
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run("--workload", w["name"], "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--rounds", "2")
            check(proc.returncode == 0, f"{w['name']} trace {trace} exits 0"
                  + ("" if proc.returncode == 0 else f": {proc.stderr.strip()[-500:]}"))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w['name']} trace {trace} passes the gate")
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{w['name']} trace {trace} reports every {kind} "
                               f"metric with its unit")


def refuses_outside_checkout() -> None:
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.*"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run("--workload", "crowd", "--seed", "0", "--seconds", "1", "--trace", "0",
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py fails without a result outside a checkout")


if __name__ == "__main__":
    tracer_restores()
    workloads_report_every_metric()
    refuses_outside_checkout()
