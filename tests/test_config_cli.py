"""Scenario config validation/round-trip and the command-line surface."""

import builtins
import copy
import dataclasses
import errno
import gc
import hashlib
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plural import cli
from plural.cli import comparison_csv, main
from plural.config import ScenarioConfig
from plural.econ import EconParams
from plural.errors import ConfigError, PluralError
from plural.rank import RankingParams
from plural.score import ScoringParams

from test_golden import DEMO
from test_sim import TINY_SCENARIO, market_doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# Every declared field written out, every optional one set.
FULL_SCENARIO = {
    "schema_version": 1,
    "seed": 11,
    "population": {
        "n_citizens": 30,
        "ideology_dim": 2,
        "blocs": [{"fraction": 0.5, "center": [-0.5, 0.1], "sigma": 0.1},
                  {"fraction": 0.5, "center": [0.5, -0.1], "sigma": 0.2}],
        "citizen_lambda": 0.5,
        "subscriber_fraction": 0.4,
        "citizen_balance": 0.05,
        "accepts_personal_ads_fraction": 0.3,
    },
    "communities": [
        {"blocs": [0, 1], "lambda": 1.0, "balance": 40.0, "admin_registered": True},
        {"blocs": [1], "lambda": 0.5, "balance": 2.0, "admin_registered": False,
         "price_per_lambda_impression": 0.02},
    ],
    "content": {"creators_per_round": 4, "stake_mean": 0.05, "content_noise": 0.4,
                "n_topics": 3},
    "advertisers": [{
        "budget": 8.0,
        "deals": [{"community": 0, "price_per_impression": 0.02, "accepted": True},
                  {"community": 1, "price_per_impression": 0.03, "accepted": False}],
        "personal_targeting": True,
        "personal_price": 0.01,
        "items_per_round": 1,
        "position": [-0.4, 0.2],
        "standing_purchase": {"community": 0, "amount": 1.0, "price": 0.5},
        "seed_stake": 0.1,
    }],
    "scoring": {"backend": "mf", "alpha": 0.5, "label_floor": 0.2, "half_life": 4.0,
                "delta_tol": 0.3, "topic_overlap_required": True, "popularity_only": False,
                "mf_reg": 0.1, "mf_epochs": 50, "mf_lr": 0.02},
    "ranking": {"feed_size": 5, "epsilon": 0.1, "stake_scale": 8.0, "seed_rounds": 3},
    "econ": {"platform_fee": 0.2, "creator_share": 0.6,
             "default_price_per_lambda_impression": 0.02, "standing_reward_rate": 0.04},
    "sim": {"rounds": 3, "refresh_interval": 2, "attitude_feedback_gamma": 0.2,
            "attitude_temperature": 1.5, "engagement_scale": 2.0, "devotion_adapt_rate": 0.1},
}


def _leaves(value, meta, keys, path):
    """(keys down to it, JSON path, kind, declared checks) of each scalar in a
    built scenario, found by walking its dataclass fields."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            key = f.metadata.get("key", f.name)
            yield from _leaves(getattr(value, f.name), f.metadata, keys + (key,),
                               f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, meta, keys + (i,), f"{path}[{i}]")
    else:
        yield keys, path, type(value), meta


FULL_LEAVES = list(_leaves(ScenarioConfig.from_dict(copy.deepcopy(FULL_SCENARIO)), {}, (), ""))


def _hostile(kind, meta):
    """A wrong kind, NaN, an int past 64 bits, and a value past each declared bound."""
    values = [1 if kind is str else "x", math.nan, 2 ** 70]
    values += [meta[b] - 1 for b in ("lo", "gt") if b in meta]
    values += [meta[b] + 1 for b in ("hi", "lt") if b in meta]
    values += ["?"] if "choices" in meta else []
    return values


class TestScenarioConfig:
    def test_roundtrip_identity(self):
        cfg = ScenarioConfig.from_dict(copy.deepcopy(TINY_SCENARIO))
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg
        third = ScenarioConfig.loads(again.to_json())
        assert third == cfg

    def test_missing_field_names_path(self):
        doc = copy.deepcopy(TINY_SCENARIO)
        del doc["population"]["n_citizens"]
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(doc)
        assert "population.n_citizens" in str(exc.value)

    def test_range_violation_names_path(self):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["communities"][0]["lambda"] = -2
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(doc)
        assert "communities[0].lambda" in str(exc.value)

    def test_bloc_fractions_must_sum(self):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["population"]["blocs"][0]["fraction"] = 0.8
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(doc)
        assert "population.blocs" in str(exc.value)

    def test_bad_backend_named(self):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["scoring"]["backend"] = "pagerank"
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(doc)
        assert "gac_penrose" in str(exc.value)

    def test_bad_schema_version(self):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["schema_version"] = 2
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(doc)

    def test_community_bloc_index_checked(self):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["communities"][0]["blocs"] = [0, 17]
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(doc)
        assert "communities[0].blocs[1]" in str(exc.value)

    def test_roundtrip_every_optional_field(self):
        cfg = ScenarioConfig.from_dict(copy.deepcopy(FULL_SCENARIO))
        assert cfg.advertisers[0].standing_purchase.price == 0.5
        assert cfg.to_dict() == FULL_SCENARIO
        assert ScenarioConfig.loads(cfg.to_json()) == cfg

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(FULL_LEAVES), st.data())
    def test_hostile_leaf_accepted_or_named(self, leaf, data):
        keys, json_path, kind, meta = leaf
        doc = copy.deepcopy(FULL_SCENARIO)
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = data.draw(st.sampled_from(_hostile(kind, meta)))
        try:
            ScenarioConfig.from_dict(doc)
        except ConfigError as exc:
            assert exc.path == json_path


class TestParamsBuiltInPython:
    @pytest.mark.parametrize("cls, kwargs", [
        (ScoringParams, {"half_life": 0}),
        (RankingParams, {"epsilon": 1.0}),
        (EconParams, {"platform_fee": 0.5, "creator_share": 0.7}),
        (ScoringParams, {"label_floor": 2.0}),
        (ScoringParams, {"alpha": math.nan}),
    ], ids=["zero_half_life", "epsilon_one", "fee_plus_share", "label_floor_two", "nan_alpha"])
    def test_bad_params_raise_value_error(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)


OUTPUTS = ("metrics.csv", "feeds.jsonl", "ledger.csv", "fabric.json", "scorecards.csv")

# (keys down to the field, value written there, JSON path the message names)
MALFORMED_SCENARIOS = {
    "nan_alpha": (["scoring", "alpha"], math.nan, "scoring.alpha"),
    "nan_lambda": (["communities", 0, "lambda"], math.nan, "communities[0].lambda"),
    "nan_stake_mean": (["content", "stake_mean"], math.nan, "content.stake_mean"),
    "inf_balance": (["communities", 0, "balance"], math.inf, "communities[0].balance"),
    "nan_fraction": (["population", "blocs", 0, "fraction"], math.nan,
                     "population.blocs[0].fraction"),
    "nan_gamma": (["sim", "attitude_feedback_gamma"], math.nan,
                  "sim.attitude_feedback_gamma"),
    "huge_int_budget": (["advertisers"], [{"budget": 10 ** 400}], "advertisers[0].budget"),
    "huge_n_topics": (["content", "n_topics"], 10 ** 30, "content.n_topics"),
    "huge_n_citizens": (["population", "n_citizens"], 10 ** 30, "population.n_citizens"),
    "seed_above_32_bits": (["seed"], 2 ** 32, "seed"),
    "ranking_string": (["ranking"], "x", "ranking"),
    "econ_string": (["econ"], "alpha", "econ"),
    "community_number": (["communities", 0], 5, "communities[0]"),
    "bloc_number": (["population", "blocs", 0], 3, "population.blocs[0]"),
    "content_array": (["content"], [], "content"),
    "sim_null": (["sim"], None, "sim"),
    "advertisers_number": (["advertisers"], 5, "advertisers"),
    "scoring_array": (["scoring"], [{"alpha": 1.0}], "scoring"),
    "center_string": (["population", "blocs", 0, "center", 0], "left",
                      "population.blocs[0].center[0]"),
    "position_string": (["advertisers"], [{"budget": 1.0, "position": ["x"]}],
                        "advertisers[0].position[0]"),
    "position_length": (["advertisers"], [{"budget": 1.0, "position": [0.1, 0.2]}],
                        "advertisers[0].position"),
    "purchase_community": (["advertisers"], [{"budget": 1.0, "standing_purchase": {
        "community": 9, "amount": 1.0, "price": 0.5}}],
        "advertisers[0].standing_purchase.community"),
    "purchase_above_budget": (["advertisers"], [{"budget": 0.2, "standing_purchase": {
        "community": 0, "amount": 1.0, "price": 0.5}}],
        "advertisers[0].standing_purchase.price"),
    "purchase_zero_price": (["advertisers"], [{"budget": 1.0, "standing_purchase": {
        "community": 0, "amount": 1.0, "price": 0.0}}],
        "advertisers[0].standing_purchase.price"),
    "purchase_zero_amount": (["advertisers"], [{"budget": 1.0, "standing_purchase": {
        "community": 0, "amount": 0.0, "price": 0.5}}],
        "advertisers[0].standing_purchase.amount"),
    "deal_community_twice": (["advertisers"], [{"budget": 1.0, "deals": [
        {"community": 0, "price_per_impression": 0.1},
        {"community": 0, "price_per_impression": 0.2}]}],
        "advertisers[0].deals[1].community"),
    "unknown_scoring_key": (["scoring", "alpah"], 2, "scoring.alpah"),
    "unknown_top_level_key": (["ranknig"], {"feed_size": 4}, "ranknig"),
    "unknown_deal_key": (["advertisers"], [{"budget": 1.0, "deals": [
        {"community": 0, "price_per_impression": 0.1, "price": 0.1}]}],
        "advertisers[0].deals[0].price"),
    "epsilon_one": (["ranking", "epsilon"], 1.0, "ranking.epsilon"),
    "zero_half_life": (["scoring", "half_life"], 0, "scoring.half_life"),
}

# Input files that cannot be read as a JSON document: each function puts
# one at the path it is given.
UNREADABLE_FILES = {
    "non_utf8": lambda path: path.write_bytes(b"\xff\xfe{}"),
    # past Python's integer-string limit, which json.loads enforces
    "integer_of_5001_digits": lambda path: path.write_text(
        '{"seed": 1' + "0" * 5000 + "}", encoding="utf-8"),
    "directory": lambda path: path.mkdir(),
}

# Output paths that cannot be made a directory: each function returns one
# under the directory it is given.
UNUSABLE_OUT_DIRS = {
    "existing_file": lambda tmp: _touch(tmp / "taken"),
    "parent_is_a_file": lambda tmp: _touch(tmp / "taken") / "out",
}


# Artifacts made directories under --out, by test case id.
ARTIFACT_DIRS = {"artifact_is_a_directory": "metrics.csv",
                 "feeds_is_a_directory": "feeds.jsonl",
                 "ledger_is_a_directory": "ledger.csv"}


def _touch(path):
    path.write_text("", encoding="utf-8")
    return path


def assert_clean_exit_2(code, err, prefix):
    """Exit 2 with a message starting with `prefix` (which names the path), and
    no traceback."""
    assert code == 2
    assert err.startswith(prefix), err
    assert "Traceback" not in err


class TestCmdRun:
    def test_missing_scenario_exit_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_scenario_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["ranking"]["epsilon"] = 2.0
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "ranking" in capsys.readouterr().err

    def test_valid_run_writes_all_outputs(self, tmp_path):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        for name in OUTPUTS:
            assert (out / name).exists(), name
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("round,mean_common_belief_top_bridging,"
                                     "polarization_index,attention_gini,platform_revenue")
        assert len(metrics) == 1 + TINY_SCENARIO["sim"]["rounds"]
        for line in (out / "feeds.jsonl").read_text().splitlines():
            json.loads(line)
        json.loads((out / "fabric.json").read_text())

    def test_seed_override_reproducible_but_different(self, tmp_path):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        outs = [tmp_path / f"out{i}" for i in range(3)]
        assert main(["run", "--scenario", str(path), "--out", str(outs[0])]) == 0
        assert main(["run", "--scenario", str(path), "--out", str(outs[1]),
                     "--seed", "99"]) == 0
        assert main(["run", "--scenario", str(path), "--out", str(outs[2]),
                     "--seed", "99"]) == 0
        base = (outs[0] / "metrics.csv").read_bytes()
        alt1 = (outs[1] / "metrics.csv").read_bytes()
        alt2 = (outs[2] / "metrics.csv").read_bytes()
        assert alt1 != base
        assert alt1 == alt2

    def test_rounds_override(self, tmp_path):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out),
                     "--rounds", "2"]) == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 3

    def test_negative_rounds_exit_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out), "--rounds", "-1"])
        assert code == 2
        assert "--rounds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    def test_seed_outside_32_bits_exit_2(self, tmp_path, capsys, seed):
        # seeds are 32-bit: -1 would alias 4294967295, and 2**32 would alias 0
        path = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out), "--seed", seed])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_valid(self, tmp_path):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                     "--seed", str(2 ** 32 - 1), "--rounds", "1"]) == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
    def test_malformed_scenario_exit_2(self, tmp_path, capsys, case):
        keys, value, json_path = MALFORMED_SCENARIOS[case]
        doc = copy.deepcopy(TINY_SCENARIO)
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"scenario error: {json_path}: ")
        assert not out.exists()

    def test_zero_rounds_valid(self, tmp_path):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out),
                     "--rounds", "0"]) == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 1

    @pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
    def test_unreadable_scenario_exit_2(self, tmp_path, capsys, case):
        path = tmp_path / "scenario.json"
        UNREADABLE_FILES[case](path)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert_clean_exit_2(code, capsys.readouterr().err, f"scenario error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(UNUSABLE_OUT_DIRS) + sorted(ARTIFACT_DIRS))
    def test_unusable_out_exit_2(self, tmp_path, capsys, case):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        if case in ARTIFACT_DIRS:
            out = tmp_path / "out"
            unusable = out / ARTIFACT_DIRS[case]
            unusable.mkdir(parents=True)
        else:
            out = unusable = UNUSABLE_OUT_DIRS[case](tmp_path)
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert_clean_exit_2(code, capsys.readouterr().err, f"output error: {unusable}: ")
        if out.is_dir():
            assert not list(out.glob("*.partial"))

    def test_failed_round_leaves_no_streamed_files(self, tmp_path, capsys, monkeypatch):
        # round 0's feeds and ledger rows are written before round 1 fails
        score_round = cli.simulation.score_round

        def fails_in_round_1(*args, **kwargs):
            if args[4] == 1:
                raise PluralError("boom in round 1")
            return score_round(*args, **kwargs)

        monkeypatch.setattr(cli.simulation, "score_round", fails_in_round_1)
        path = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "run failed: boom in round 1\n"
        assert list(out.iterdir()) == []

    def test_failed_artifact_write_leaves_no_artifact(self, tmp_path, capsys, monkeypatch):
        """Opening scorecards.csv (or its partial file) fails with ENOSPC,
        after metrics.csv and fabric.json are written: the run ends in exit 2
        and --out holds no artifact and no partial file."""
        def open_fails_on_scorecards(file, *args, **kwargs):
            if Path(file).name.startswith("scorecards.csv"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
            return builtins.open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", open_fails_on_scorecards, raising=False)
        path = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"output error: {out / 'scorecards.csv'}")
        assert err.endswith(f": cannot write the file: {os.strerror(errno.ENOSPC)}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("block,key,message", [
        ("sim", "devotion_adapt_rate", "raw devotion of citizen 0 in community 0 overflowed"),
        ("econ", "standing_reward_rate", "standing total of community 1 overflowed"),
        ("communities", "lambda", "attention total of citizen 100 overflowed")],
        ids=["devotion", "standing", "attention"])
    def test_overflowing_total_fails_the_run(self, tmp_path, capsys, block, key, message):
        """Each of these 3-round demo runs passes validation, but a total
        passes the float range: the run ends in exit 1 naming that total,
        and leaves no artifact."""
        doc = json.loads(DEMO.read_text(encoding="utf-8"))
        doc["sim"]["rounds"] = 3
        for part in doc[block] if block == "communities" else [doc[block]]:
            part[key] = 1e308
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, f"run failed: {message}\n")
        assert list(out.iterdir()) == []

    def test_successful_run_leaves_no_partial_files(self, tmp_path):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS)

    def test_market_purchase_of_whole_budget_runs(self, tmp_path):
        # sell_standing accepts a price equal to the balance, so validation does too
        doc = market_doc(rounds=1)
        doc["advertisers"][0]["budget"] = doc["advertisers"][0]["standing_purchase"]["price"]
        path = write_scenario(tmp_path, doc)
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_purchase_from_unregistered_community_exit_2(self, tmp_path, capsys):
        doc = market_doc(rounds=1)
        doc["communities"][0]["admin_registered"] = False
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert_clean_exit_2(code, capsys.readouterr().err,
                            "scenario error: advertisers[0].standing_purchase.community: ")
        assert not out.exists()


class TestCmdScore:
    def _fabric_json(self, tmp_path):
        from plural.fabric import SocialFabric
        f = SocialFabric()
        for _ in range(8):
            f.add_citizen()
        a = f.add_community(lambda_=1.0)
        b = f.add_community(lambda_=1.0)
        for p in range(4):
            f.add_membership(p, a, 1.0, 1.0)
        for p in range(4, 8):
            f.add_membership(p, b, 1.0, 1.0)
        f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]
        f.communities[b].principal_subcommunities = [{4, 5}, {6, 7}]
        path = tmp_path / "fabric.json"
        path.write_text(f.to_json(), encoding="utf-8")
        return path

    def test_empty_reactions_empty_scorecards(self, tmp_path):
        fabric = self._fabric_json(tmp_path)
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("", encoding="utf-8")
        out = tmp_path / "cards.csv"
        assert main(["score", "--reactions", str(reactions), "--fabric", str(fabric),
                     "--backend", "gac_penrose", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "content_id,scope_kind,scope_id,iota,beta,delta,psi,label,characteristic_blocs"]

    def test_unknown_backend_lists_valid(self, tmp_path, capsys):
        fabric = self._fabric_json(tmp_path)
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("", encoding="utf-8")
        code = main(["score", "--reactions", str(reactions), "--fabric", str(fabric),
                     "--backend", "sparkly", "--out", str(tmp_path / "cards.csv")])
        assert code == 2
        err = capsys.readouterr().err
        for backend in ("gac_uniform", "gac_penrose", "mf"):
            assert backend in err

    def test_equal_blocs_uniform_equals_penrose(self, tmp_path):
        fabric = self._fabric_json(tmp_path)
        rows = ["citizen_id,content_id,round,exposed,reaction"]
        votes = {0: 1, 1: 1, 2: -1, 3: 1, 4: 1, 5: -1, 6: -1, 7: 1}
        for p, r in votes.items():
            rows.append(f"{p},0,0,1,{r}")
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("\n".join(rows) + "\n", encoding="utf-8")
        outs = {}
        for backend in ("gac_uniform", "gac_penrose"):
            out = tmp_path / f"{backend}.csv"
            assert main(["score", "--reactions", str(reactions), "--fabric", str(fabric),
                         "--backend", backend, "--out", str(out)]) == 0
            outs[backend] = {}
            for line in out.read_text().splitlines()[1:]:
                cols = line.split(",")
                outs[backend][(cols[0], cols[1], cols[2])] = cols[4]  # beta
        assert outs["gac_uniform"] == outs["gac_penrose"]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["score", "--reactions", str(tmp_path / "r.csv"),
                     "--fabric", str(tmp_path / "f.json"),
                     "--backend", "gac_penrose", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_bloc_with_non_member_exit_2(self, tmp_path, capsys):
        from plural.fabric import SocialFabric
        fabric = self._fabric_json(tmp_path)
        f = SocialFabric.from_json(fabric.read_text(encoding="utf-8"))
        f.communities[0].principal_subcommunities = [{0, 1}, {2, 3, 5}]
        fabric.write_text(f.to_json(), encoding="utf-8")
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("", encoding="utf-8")
        out = tmp_path / "cards.csv"
        code = main(["score", "--reactions", str(reactions), "--fabric", str(fabric),
                     "--backend", "gac_penrose", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(fabric) in err and "community 0" in err
        assert not out.exists()

    def test_blocs_sharing_a_member_exit_2(self, tmp_path, capsys):
        fabric = self._fabric_json(tmp_path)
        doc = json.loads(fabric.read_text(encoding="utf-8"))
        doc["communities"][1]["principal_subcommunities"] = [[4], [4]]
        fabric.write_text(json.dumps(doc), encoding="utf-8")
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("citizen_id,content_id,round,exposed,reaction\n4,0,0,1,1\n",
                             encoding="utf-8")
        out = tmp_path / "cards.csv"
        code = main(["score", "--reactions", str(reactions), "--fabric", str(fabric),
                     "--backend", "gac_penrose", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(fabric) in err and "community 1" in err and "sharing members [4]" in err
        assert not out.exists()

    def _score(self, tmp_path, fabric, reactions):
        out = tmp_path / "cards.csv"
        code = main(["score", "--reactions", str(reactions), "--fabric", str(fabric),
                     "--backend", "gac_penrose", "--out", str(out)])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("text, expected", [
        ('{"citizens": [], "memberships": []}', "'communities'"),
        ('{"citizens": [{"id": 0}], "communities": [{"lambda": 1.0}], '
         '"memberships": []}', "communities[0]: missing key 'id'"),
        ('{"citizens": [', "Expecting"),
        ('{"citizens": [{"id": 0}], "communities": [{"id": 0}], "memberships": ['
         '{"citizen": 0, "community": 0, "raw_standing": 1.0, "raw_devotion": 1.0}, '
         '{"citizen": 0, "community": 0, "raw_standing": 2.0, "raw_devotion": 1.0}]}',
         "memberships[1]: citizen 0 already in community 0"),
        ('{"citizens": [], "communities": [{"id": 0}, {"id": 1, "derived_from": [0, 2]}], '
         '"memberships": []}', "communities[1]: derived_from must be null, got [0, 2]"),
    ], ids=["missing_communities", "record_without_id", "invalid_json", "duplicate_membership",
            "derived_from_not_null"])
    def test_malformed_fabric_exit_2(self, tmp_path, capsys, text, expected):
        fabric = tmp_path / "fabric.json"
        fabric.write_text(text, encoding="utf-8")
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("", encoding="utf-8")
        assert self._score(tmp_path, fabric, reactions) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fabric error: {fabric}: ")
        assert expected in err

    @pytest.mark.parametrize("key, value", [
        ("raw_standing", 0), ("raw_devotion", -1), ("raw_devotion", float("nan")),
    ], ids=["zero_standing", "negative_devotion", "nan_devotion"])
    def test_non_positive_weight_exit_2(self, tmp_path, capsys, key, value):
        fabric = self._fabric_json(tmp_path)
        doc = json.loads(fabric.read_text(encoding="utf-8"))
        doc["memberships"][5][key] = value
        fabric.write_text(json.dumps(doc), encoding="utf-8")
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("", encoding="utf-8")
        assert self._score(tmp_path, fabric, reactions) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fabric error: {fabric}: memberships[5]: raw weights must be > 0")

    @pytest.mark.parametrize("value", ["x", True, 1.5, "3"], ids=["str", "bool", "float", "digits"])
    @pytest.mark.parametrize("path, expected", [
        (("citizens", 0, "id"), "citizens[0]: id"),
        (("communities", 1, "id"), "communities[1]: id"),
        (("memberships", 5, "citizen"), "memberships[5]: citizen"),
        (("memberships", 6, "community"), "memberships[6]: community"),
        (("communities", 0, "principal_subcommunities", 1, 0),
         "communities[0]: principal_subcommunities member"),
    ], ids=["citizen", "community", "membership_citizen", "membership_community", "bloc_member"])
    def test_non_integer_id_exit_2(self, tmp_path, capsys, value, path, expected):
        fabric = self._fabric_json(tmp_path)
        doc = json.loads(fabric.read_text(encoding="utf-8"))
        record = doc
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = value
        fabric.write_text(json.dumps(doc), encoding="utf-8")
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("", encoding="utf-8")
        assert self._score(tmp_path, fabric, reactions) == 2
        assert capsys.readouterr().err == \
            f"fabric error: {fabric}: {expected} must be an integer, got {value!r}\n"

    INF_STANDING = "raw weights must be > 0 and finite, got raw_standing inf, raw_devotion 1.0"

    @pytest.mark.parametrize("path, literal, expected", [
        (("citizens", 0, "subscriber"), '"no"', "citizens[0]: subscriber must be true or false, got 'no'"),
        (("citizens", 1, "accepts_personal_ads"), "1",
         "citizens[1]: accepts_personal_ads must be true or false, got 1"),
        (("communities", 0, "admin_registered"), '"false"',
         "communities[0]: admin_registered must be true or false, got 'false'"),
        (("memberships", 0, "opted_in"), '"no"', "memberships[0]: opted_in must be true or false, got 'no'"),
        (("citizens", 0, "lambda"), "true", "citizens[0]: lambda must be a number, got True"),
        (("communities", 1, "lambda"), '"1"', "communities[1]: lambda must be a number, got '1'"),
        (("communities", 1, "lambda"), "Infinity", "communities[1]: lambda must be >= 0 and finite, got inf"),
        (("citizens", 0, "lambda"), "NaN", "citizens[0]: lambda must be >= 0 and finite, got nan"),
        (("memberships", 0, "raw_standing"), "Infinity", f"memberships[0]: {INF_STANDING}"),
        (("memberships", 0, "raw_standing"), "1e309", f"memberships[0]: {INF_STANDING}"),
        (("memberships", 0, "raw_standing"), "1" + "0" * 400, "memberships[0]: raw_standing is past the float range"),
        (("memberships", 0, "raw_devotion"), "false", "memberships[0]: raw_devotion must be a number, got False"),
    ], ids=["subscriber_str", "ads_int", "admin_str", "opted_in_str", "lambda_bool", "lambda_str",
            "lambda_inf", "lambda_nan", "standing_infinity", "standing_1e309", "standing_huge_int",
            "devotion_bool"])
    def test_mistyped_field_exit_2(self, tmp_path, capsys, path, literal, expected):
        fabric = self._fabric_json(tmp_path)
        doc = json.loads(fabric.read_text(encoding="utf-8"))
        record = doc
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = "HOSTILE"
        fabric.write_text(json.dumps(doc).replace('"HOSTILE"', literal), encoding="utf-8")
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("", encoding="utf-8")
        assert self._score(tmp_path, fabric, reactions) == 2
        assert capsys.readouterr().err == f"fabric error: {fabric}: {expected}\n"

    @pytest.mark.parametrize("row, expected", [
        ("0,x,0,1,1", "line 3: content_id is not an integer: 'x'"),
        ("1,0,0,0,1", "line 3: reaction without exposure"),
        ("1,0,0,1", "line 3: missing field reaction"),
        ("1,0,0,7,1", "line 3: exposed must be 0 or 1"),
        ("1,0,9223372036854775808,1,1", "line 3: round is out of range (int64)"),
        ("-9223372036854775809,0,0,1,1", "line 3: citizen_id is out of range (int64)"),
    ], ids=["non_integer", "reaction_without_exposure", "short_row", "exposed_not_0_1",
            "round_past_int64", "citizen_past_int64"])
    def test_malformed_reactions_exit_2(self, tmp_path, capsys, row, expected):
        fabric = self._fabric_json(tmp_path)
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("citizen_id,content_id,round,exposed,reaction\n"
                             f"0,0,0,1,1\n{row}\n", encoding="utf-8")
        assert self._score(tmp_path, fabric, reactions) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"reactions error: {reactions}: {expected}")

    @pytest.mark.parametrize("flag", ["reactions", "fabric"])
    @pytest.mark.parametrize("case", ["directory", "non_utf8"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, flag, case):
        paths = {"fabric": self._fabric_json(tmp_path), "reactions": tmp_path / "reactions.csv"}
        paths["reactions"].write_text("", encoding="utf-8")
        bad = paths[flag] = tmp_path / f"bad-{flag}"
        UNREADABLE_FILES[case](bad)
        code = self._score(tmp_path, paths["fabric"], paths["reactions"])
        assert_clean_exit_2(code, capsys.readouterr().err, f"{flag} error: {bad}: ")

    @pytest.mark.parametrize("case", ["missing_parent", "directory"])
    def test_unusable_out_exit_2(self, tmp_path, capsys, case):
        fabric = self._fabric_json(tmp_path)
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("", encoding="utf-8")
        out = tmp_path / "missing" / "cards.csv" if case == "missing_parent" else tmp_path
        code = main(["score", "--reactions", str(reactions), "--fabric", str(fabric),
                     "--backend", "gac_penrose", "--out", str(out)])
        assert_clean_exit_2(code, capsys.readouterr().err, f"output error: {out}: ")

    def test_reactions_missing_column_exit_2(self, tmp_path, capsys):
        fabric = self._fabric_json(tmp_path)
        reactions = tmp_path / "reactions.csv"
        reactions.write_text("citizen_id,content_id,round,reaction\n0,0,0,1\n",
                             encoding="utf-8")
        assert self._score(tmp_path, fabric, reactions) == 2
        assert "line 1: missing column(s) exposed" in capsys.readouterr().err

    def test_no_stored_blocs_detects_them(self, tmp_path):
        from plural.detect import principal_subcommunities
        from plural.fabric import SocialFabric
        from plural.score import (ContentItem, ReactionMatrix, ScoringParams,
                                  score_round)
        fabric = self._fabric_json(tmp_path)
        f = SocialFabric.from_json(fabric.read_text(encoding="utf-8"))
        for comm in f.communities.values():
            comm.principal_subcommunities = []
        fabric.write_text(f.to_json(), encoding="utf-8")
        # Two opposed pairs inside each community, over four contents.
        rows = ["citizen_id,content_id,round,exposed,reaction"]
        for mid in range(4):
            for p in range(8):
                side = 1 if p % 4 < 2 else -1
                rows.append(f"{p},{mid},{mid},1,{side if mid % 2 == 0 else -side}")
        text = "\n".join(rows) + "\n"
        reactions = tmp_path / "reactions.csv"
        reactions.write_text(text, encoding="utf-8")
        out = tmp_path / "cards.csv"
        assert main(["score", "--reactions", str(reactions), "--fabric", str(fabric),
                     "--backend", "gac_penrose", "--out", str(out)]) == 0

        log = ReactionMatrix.from_csv(text)
        matrix = log.to_attitudes(row_ids=sorted(f.citizens))
        for cid in sorted(f.communities):
            assert len(principal_subcommunities(f, cid, matrix, seed=0)) >= 2
        catalog = {mid: ContentItem(id=mid, creator=0, created_round=mid,
                                    target_communities={0, 1})
                   for mid in range(4)}
        expected = score_round(f, catalog, log, ScoringParams(), 3, f.signatures()).to_csv()
        assert out.read_text(encoding="utf-8") == expected


class TestCmdCompare:
    def test_single_seed_delta_row(self, tmp_path):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["sim"]["rounds"] = 3
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(path), "--seeds", "1",
                     "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3  # header, one seed row, summary
        assert lines[1].startswith(str(doc["seed"]))
        assert lines[2].startswith("summary")

    def test_demo_comparison_bytes(self, tmp_path):
        # recorded when each run still kept every feed and ledger row
        doc = json.loads(DEMO.read_text(encoding="utf-8"))
        doc["sim"]["rounds"] = 3
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(path), "--seeds", "2",
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest() == \
            "cc88bd2a8ef217d2be2158d11baddd7266342131515e230ed71df87890c5dda2"

    # recorded when rank still tagged every feed entry with its provenance
    MARKET_4_SEEDS_2 = "46da546f80f0b12aded75e44d014371cb09dedd8de32862ce455caca17167765"

    def _market_comparison(self, tmp_path) -> str:
        path = write_scenario(tmp_path, market_doc(0, rounds=4))
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(path), "--seeds", "2",
                     "--out", str(out)]) == 0
        return hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest()

    def test_market_comparison_bytes(self, tmp_path):
        assert self._market_comparison(tmp_path) == self.MARKET_4_SEEDS_2

    def test_compare_formats_no_feed_line(self, tmp_path, monkeypatch):
        from plural import rank

        def refuse(*args, **kwargs):
            raise AssertionError("compare formatted a feed line")
        monkeypatch.setattr(rank, "_tag", refuse)
        assert self._market_comparison(tmp_path) == self.MARKET_4_SEEDS_2

    def test_zero_rounds_all_deltas_zero(self, tmp_path):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["sim"]["rounds"] = 0
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(path), "--seeds", "2",
                     "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:-1]:
            row = dict(zip(header, line.split(",")))
            for col, val in row.items():
                if col.startswith("delta_"):
                    assert float(val) == 0.0
        assert lines[-1].count("+0/-0/=2") == 4

    def test_summary_sign_counts(self):
        rows = [
            {"seed": 1, "delta_mean_common_belief_top_bridging": 0.5,
             "delta_polarization_index": -0.1, "delta_attention_gini": 0.0,
             "delta_platform_revenue": 1.0,
             "bridging_mean_common_belief_top_bridging": 1.0,
             "baseline_mean_common_belief_top_bridging": 0.5,
             "bridging_polarization_index": 0.1, "baseline_polarization_index": 0.2,
             "bridging_attention_gini": 0.3, "baseline_attention_gini": 0.3,
             "bridging_platform_revenue": 2.0, "baseline_platform_revenue": 1.0},
        ]
        text = comparison_csv(rows)
        summary = text.splitlines()[-1]
        assert "+1/-0/=0" in summary and "+0/-1/=0" in summary and "+0/-0/=1" in summary

    def test_seeds_past_32_bits_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["seed"] = 2 ** 32 - 1
        doc["sim"]["rounds"] = 0
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(path), "--seeds", "2",
                     "--out", str(out)]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()
        assert main(["compare", "--scenario", str(path), "--seeds", "1",
                     "--out", str(out)]) == 0

    def test_bad_seed_count(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TINY_SCENARIO)
        assert main(["compare", "--scenario", str(path), "--seeds", "0",
                     "--out", str(tmp_path / "cmp")]) == 2

    @pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
    def test_unreadable_scenario_exit_2(self, tmp_path, capsys, case):
        path = tmp_path / "scenario.json"
        UNREADABLE_FILES[case](path)
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(path), "--seeds", "1", "--out", str(out)])
        assert_clean_exit_2(code, capsys.readouterr().err, f"scenario error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(UNUSABLE_OUT_DIRS) + ["artifact_is_a_directory"])
    def test_unusable_out_exit_2(self, tmp_path, capsys, case):
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["sim"]["rounds"] = 0
        path = write_scenario(tmp_path, doc)
        if case == "artifact_is_a_directory":
            out = tmp_path / "cmp"
            unusable = out / "comparison.csv"
            unusable.mkdir(parents=True)
        else:
            out = unusable = UNUSABLE_OUT_DIRS[case](tmp_path)
        code = main(["compare", "--scenario", str(path), "--seeds", "1", "--out", str(out)])
        assert_clean_exit_2(code, capsys.readouterr().err, f"output error: {unusable}: ")


class TestMainCollector:
    """`main` runs the subcommand with the cyclic collector off and gives the
    caller back the collector state it had, whatever the exit."""

    @pytest.fixture
    def gc_state(self):
        before = gc.isenabled()
        yield
        if before:
            gc.enable()
        else:
            gc.disable()

    def _exits(self, tmp_path, monkeypatch):
        """Runs of `main` ending in exit 0, 1, 2 (returned) and 2 (argparse)."""
        path = write_scenario(tmp_path, TINY_SCENARIO)
        seen = []

        def ok(*args, **kwargs):
            seen.append(gc.isenabled())
            return 0

        def fails(*args, **kwargs):
            seen.append(gc.isenabled())
            raise PluralError("boom")

        monkeypatch.setattr(cli, "_write_outputs", lambda out_dir, result: None)
        monkeypatch.setattr(cli.simulation, "run", ok)
        yield 0, lambda: main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        monkeypatch.setattr(cli.simulation, "run", fails)
        yield 1, lambda: main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        yield 2, lambda: main(["run", "--scenario", str(tmp_path / "missing.json"),
                               "--out", str(tmp_path / "o")])

        def argparse_exit():
            with pytest.raises(SystemExit) as exc:
                main(["run"])
            return exc.value.code
        yield 2, argparse_exit
        assert seen == [False, False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_restores_callers_state(self, tmp_path, monkeypatch, gc_state, enabled):
        for expected, call in self._exits(tmp_path, monkeypatch):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert call() == expected
            assert gc.isenabled() is enabled
