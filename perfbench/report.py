"""Run the benchmark over workloads and seeds and print a table.

    python3 perfbench/report.py                      # every workload, seed 0
    python3 perfbench/report.py --seeds 0-9          # spread over ten seeds
    python3 perfbench/report.py --trace              # add the per-layer pass

Run from the root of a checkout. Each (workload, seed) is one call of
run.py, so every figure has passed the same digest and audit gate. For
each end-to-end metric the table gives the median over seeds, the
quartiles, and the spread (q3 - q1) / median that BENCHMARK.json's bounds
apply to; `failed_frac` is failed runs over attempted runs, counted over
both passes, so an audit or feed-share miss in a traced run shows. With
--trace, layer times are also shown as a share of the traced `cli.main_s`,
and the workload design is checked against the traced figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    *_, info, result = proc.stdout.strip().splitlines()
    return dict(json.loads(result), conditions=json.loads(info)["conditions"])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def check_design(layers: dict[str, dict[str, float]]) -> list[tuple[str, bool]]:
    """The traced figures each workload was chosen to show."""
    share = {w: {k: v / m["cli.main_s"] for k, v in m.items() if k.endswith("_s")}
             for w, m in layers.items()}
    others = [w for w in layers if w != "mf"]
    checks = []
    if "mf" in share:
        checks.append(("bridging_mf_s is most of mf",
                       share["mf"]["score.bridging_mf_s"] > 0.5))
    if others:
        checks.append(("bridging_mf_s is zero outside mf",
                       all(layers[w]["score.bridging_mf_s"] == 0 for w in others)))
    if {"market", "crowd"} <= share.keys():
        checks.append(("balancing_set_s share: market > crowd",
                       share["market"]["score.balancing_set_s"]
                       > share["crowd"]["score.balancing_set_s"]))
    if {"crowd", "market"} <= share.keys():
        checks.append(("fuzzy_c_means_s share: crowd > market",
                       share["crowd"]["detect.fuzzy_c_means_s"]
                       > share["market"]["detect.fuzzy_c_means_s"]))
    if "crowd" in layers:
        checks.append(("rank.feeds highest on crowd",
                       max(layers, key=lambda w: layers[w]["rank.feeds"]) == "crowd"))
    if {"crowd", "market"} <= share.keys():
        checks.append(("score_round_s share: crowd < market",
                       share["crowd"]["score.score_round_s"]
                       < share["market"]["score.score_round_s"]))
    if "market" in layers:
        for key in ("econ.postings", "econ.ad_skipped", "econ.lambda_clamped"):
            top = max(layers, key=lambda w: layers[w][key])
            checks.append((f"{key} highest on market", top == "market"))
    return checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 3,5")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also run the traced pass")
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    results: dict = {}
    for workload in names:
        for seed in seeds(args.seeds):
            for trace in ([False, True] if args.trace else [False]):
                res = bench(workload, seed, args.seconds, trace)
                results.setdefault(workload, {}).setdefault(str(seed), {})[
                    "trace" if trace else "plain"] = res
                print(f"# {workload} seed {seed} trace {int(trace)}: "
                      f"correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']}", file=sys.stderr, flush=True)

    print(f"{'workload':8} {'metric':12} {'unit':6} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for workload in names:
        runs = [r["plain"] for r in results[workload].values()]
        for spec in SPEC["end_to_end"]:
            vals = [r["metrics"][spec["name"]]["value"] for r in runs]
            med, q1, q3, spread = summary(vals)
            print(f"{workload:8} {spec['name']:12} {spec['unit']:6} {med:10.4f} "
                  f"{q1:10.4f} {q3:10.4f} {spread:7.3f} {spec['bound']:6.2f}")
        passes = [r for seed in results[workload].values() for r in seed.values()]
        failed = sum(r["failed"] for r in passes)
        attempted = sum(r["attempted"] for r in passes)
        print(f"{workload:8} {'failed_frac':12} {'ratio':6} {failed / attempted:10.4f}  "
              f"({failed} of {attempted} runs; correct={all(r['correct'] for r in passes)})")

    if args.trace:
        layers = {w: {k: statistics.median(r["trace"]["metrics"][k]["value"]
                                           for r in results[w].values())
                      for k in results[w][next(iter(results[w]))]["trace"]["metrics"]}
                  for w in names}
        print(f"\n{'layer metric':36} {'unit':6}" + "".join(f"{w:>20}" for w in names))
        for spec in SPEC["per_layer"]:
            key = spec["name"]
            cells = []
            for w in names:
                v = layers[w][key]
                pct = f" ({v / layers[w]['cli.main_s']:5.1%})" \
                    if spec["unit"] == "s" and key != "cli.main_s" else ""
                cells.append(f"{v:.4g}{pct}".rjust(20))
            print(f"{key:36} {spec['unit']:6}" + "".join(cells))
        print()
        for text, ok in check_design(layers):
            print(f"{'ok  ' if ok else 'FAIL'} {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
