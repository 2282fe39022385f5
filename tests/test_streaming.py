"""Streamed runs: `plural run` writes feeds.jsonl and ledger.csv as each round
ends and keeps neither in memory. The files must equal, byte for byte, what
the in-memory run of the same scenario writes, and the drained ledger must
keep its balances and its audit."""

import copy
import json

import pytest

from plural import cli, sim as simulation
from plural.cli import main
from plural.config import ScenarioConfig
from plural.errors import PluralError

from test_config_cli import OUTPUTS
from test_sim import TINY_SCENARIO, market_doc

SCENARIOS = {"tiny": lambda: copy.deepcopy(TINY_SCENARIO), "market": market_doc}
ROUNDS = [0, 1, 3]


def in_memory(doc: dict, rounds: int):
    return simulation.run(ScenarioConfig.from_dict(doc), rounds=rounds)


@pytest.mark.parametrize("rounds", ROUNDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cli_files_equal_in_memory_run(tmp_path, name, rounds):
    doc = SCENARIOS[name]()
    kept = in_memory(doc, rounds)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out),
                 "--rounds", str(rounds)]) == 0
    assert (out / "feeds.jsonl").read_text(encoding="utf-8") == "".join(kept.feed_lines)
    assert (out / "ledger.csv").read_text(encoding="utf-8") == "".join(kept.ledger.csv_lines())
    assert not list(out.glob("*.partial"))


@pytest.mark.parametrize("rounds", ROUNDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_streamed_run_keeps_no_rows_and_audits(name, rounds):
    doc = SCENARIOS[name]()
    kept = in_memory(doc, rounds)
    lines, rows = [], []

    def sink(round_lines, ledger):
        lines.extend(round_lines)
        rows.extend(ledger.drain().entries())

    streamed = simulation.run(ScenarioConfig.from_dict(doc), rounds=rounds, sink=sink)
    assert streamed.feed_lines == []
    assert streamed.ledger.entries == []
    assert lines == kept.feed_lines
    assert rows == kept.ledger.entries
    # the standing purchases, posted before round 0, come first
    purchases = sum(adv.get("standing_purchase") is not None for adv in doc["advertisers"])
    assert [row.reason for row in rows[:purchases]] == ["StandingPurchase"] * purchases
    streamed.ledger.audit()
    assert streamed.ledger.owners == kept.ledger.owners
    assert [repr(streamed.ledger.balance(owner)) for owner in streamed.ledger.owners] == \
        [repr(kept.ledger.balance(owner)) for owner in kept.ledger.owners]
    assert streamed.metrics == kept.metrics


def test_failed_run_leaves_no_earlier_artifacts(tmp_path, capsys, monkeypatch):
    """A run that fails in a reused --out takes an earlier run's artifacts
    with it, so none of them looks like the failed run's output; a flag
    error, caught before the run starts, leaves them alone."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
    out = tmp_path / "out"
    run = ["run", "--scenario", str(scenario), "--out", str(out)]
    assert main(run + ["--rounds", "2"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS)

    assert main(run + ["--rounds", "-1"]) == 2
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS)

    score_round = cli.simulation.score_round

    def fails_in_round_1(*args, **kwargs):
        if args[4] == 1:
            raise PluralError("boom in round 1")
        return score_round(*args, **kwargs)

    monkeypatch.setattr(cli.simulation, "score_round", fails_in_round_1)
    capsys.readouterr()
    assert main(run + ["--rounds", "3"]) == 1
    assert capsys.readouterr().err == "run failed: boom in round 1\n"
    assert list(out.iterdir()) == []
