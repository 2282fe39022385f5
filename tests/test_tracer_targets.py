"""The benchmark's tracer (perfbench/tracer.py) wraps plural functions by
name and reads some of their positional arguments. A rename or a reordered
signature would make every traced benchmark run fail; this test makes it
fail here instead. It loads the tracer from the checkout and changes
nothing under perfbench/."""

import importlib.util
import inspect
import json
from pathlib import Path

from plural import cli, rank

ROOT = Path(__file__).resolve().parent.parent

# The traced tiny run's work counts; a change that alters one on purpose
# updates it here and says why. `econ.postings` counts `Ledger.post` calls:
# settlement posts each round as one block, so only standing purchases call
# it, and the tiny run has none. Its 528 postings are pinned as ledger rows.
# Ranking runs in group passes that call no per-citizen function the tracer
# wraps, so its `rank.*` counts read 0; the run's 264 feed entries are
# pinned as feeds.jsonl lines. `detect.cells` counts the cells of the
# matrices handed to `fuzzy_c_means`, which `select_partition` no longer
# calls: it fits every K in one sweep of its own.
PINNED_COUNTS = {
    "score.cards": 378,
    "score.balancing_calls": 5,
    "econ.postings": 0,
    "detect.cells": 0,
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _traced_run(tracer, doc: dict, tmp_path: Path, installed=lambda: None):
    """`plural run` of `doc` under `tracer`, calling `installed` once it is
    in place: the exit code, the number of ledger.csv data lines and the
    number of feeds.jsonl lines (feed entries)."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    tracer.install()
    try:
        installed()
        code = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    out = tmp_path / "out"
    return code, _lines(out / "ledger.csv") - 1, _lines(out / "feeds.jsonl")


def _bindings(tracer_module) -> dict:
    """Every attribute the tracer may patch, as currently bound."""
    modules = tracer_module.plural_modules()
    out = {}
    for mod, attr, _, _ in tracer_module.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(modules[f"plural.{mod}"], cls_name)
            out[(cls, meth)] = cls.__dict__[meth]
        else:
            for module in modules.values():
                if attr in module.__dict__:
                    out[(module, attr)] = module.__dict__[attr]
    return out


def test_observed_positional_arguments():
    assert list(inspect.signature(rank.exposure_weights).parameters)[3] == "pool"
    # The tracer reads `params` at position 4 and falls back to the keyword,
    # which every call must then pass.
    params = inspect.signature(rank.build_feed).parameters["params"]
    assert params.kind is inspect.Parameter.KEYWORD_ONLY


def test_tracer_installs_traces_a_run_and_restores(tmp_path):
    tracer_module = _load_tracer()
    before = _bindings(tracer_module)
    doc = json.loads((ROOT / "scenarios" / "demo.json").read_text(encoding="utf-8"))
    doc["population"]["n_citizens"] = 40
    doc["sim"].update(rounds=2, refresh_interval=1)

    def installed():
        assert _bindings(tracer_module) != before

    tracer = tracer_module.Tracer()
    code, ledger_rows, feed_entries = _traced_run(tracer, doc, tmp_path, installed)
    assert code == 0
    assert _bindings(tracer_module) == before
    layers = tracer.layers()
    for key in ("score.cards", "detect.refreshes"):
        assert layers[key] > 0, key
    assert (ledger_rows, feed_entries) == (528, 264)
    # Batching refactors must keep what the tracer counts, not only its
    # names: one react draw per feed entry, and the work counts of this run.
    assert layers["sim.react_calls"] == feed_entries
    assert {key: layers[key] for key in PINNED_COUNTS} == PINNED_COUNTS
    tracer.outcome.fabric.audit()
    tracer.outcome.ledger.audit()


def test_traced_market_run_keeps_its_clamps_skips_and_rows(tmp_path):
    """The benchmark's market instance 10 clamps one sponsor and skips 2,902
    ad payments, which the tracer counts from the settlement events, over
    63,518 ledger rows: settling in blocks must move none of them."""
    workloads = _load("workloads")
    base = json.loads((ROOT / "scenarios" / "demo.json").read_text(encoding="utf-8"))
    tracer = _load_tracer().Tracer()
    code, ledger_rows, _ = _traced_run(tracer, workloads.scenario(base, "market", 10), tmp_path)
    assert code == 0
    layers = tracer.layers()
    assert (layers["econ.lambda_clamped"], layers["econ.ad_skipped"], ledger_rows) \
        == (1, 2902, 63518)
    tracer.outcome.ledger.audit()
