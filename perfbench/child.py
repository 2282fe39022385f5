"""One measured process: `plural` set-up, or one `plural run`.

    python3 child.py <result.json> setup <scenario.json>
    python3 child.py <result.json> run <scenario.json> <out_dir> [--trace]

The parent starts a fresh interpreter for every measurement, with
PYTHONPATH pointing at the checkout's `src`, and reads the result file.
`setup` times `import plural`, `ScenarioConfig.load` and a zero-round
`run`. `run` times the real CLI entry point from call to return; with
`--trace` the tracer is installed around it, removed afterwards, and the
run's fabric and ledger are audited.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def setup(scenario: str) -> dict:
    import plural
    config = plural.ScenarioConfig.load(scenario)
    plural.run(config, rounds=0)
    return {"setup_s": time.perf_counter() - _START}


def run(scenario: str, out: str, trace: bool) -> dict:
    from plural import cli
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        code = cli.main(["run", "--scenario", scenario, "--out", out])
    finally:
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.restore()
    result = {
        "exit_code": code,
        "run_s": elapsed,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,   # Linux reports KiB
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        try:
            tracer.outcome.fabric.audit()
            tracer.outcome.ledger.audit()
        except (AssertionError, AttributeError) as exc:
            result["audit_error"] = f"{type(exc).__name__}: {exc}"
    return result


def main(argv: list[str]) -> int:
    path, mode, scenario, *rest = argv
    if mode == "setup":
        result = setup(scenario)
    else:
        result = run(scenario, rest[0], rest[1:] == ["--trace"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
