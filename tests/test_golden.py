"""Golden lock: short runs of the demo scenario, on the `mf` backend, on the
default `gac_penrose` backend and on `gac_uniform`, and short runs of the
benchmark's `market` scenario, some with devotion adapting, must reproduce
their artifacts byte for byte, and so must `plural score` on that `market`
run's fabric and reactions. A change that alters outputs on purpose updates
these digests and says why."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from plural import sim as simulation
from plural.cli import main
from plural.config import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scenarios" / "demo.json"

# sha256 of each artifact of the demo with scoring.backend "mf" and 2 rounds.
MF_DEMO_DIGESTS = {
    "metrics.csv": "cb9c3d96fae51a890f75dd97faec4f10457b80e248aefb22a73f23460705e01a",
    "feeds.jsonl": "dcf82effdae7c68ec738714365475e53f1cd08643e57caa9dd30355c25286485",
    "ledger.csv": "02b6fa9dd46c0c09266bc918b85cd10377c3ced127744709eb9fdb24dc3094cb",
    "fabric.json": "6fd6c1783e6b2d3a23bb72edccc7ca90fe78cd8b7ae43c85cd916e647f955ca2",
    "scorecards.csv": "ce50183a7a06261d6d632aa54ce30c83e717422197643c2c9f81e7465d12b69f",
}

# The same with blocs refreshed every round. At the demo's refresh interval
# no community has blocs within 2 rounds, so the fitted mf betas never reach
# a card; here they do, and scorecards.csv carries them.
MF_REFRESH_1_DIGESTS = {
    "metrics.csv": "e6145fd99a364d07007bd4fcd0680ce43fac7d809f7e72a6d5bd74a7438b27fe",
    "feeds.jsonl": "dcf82effdae7c68ec738714365475e53f1cd08643e57caa9dd30355c25286485",
    "ledger.csv": "02b6fa9dd46c0c09266bc918b85cd10377c3ced127744709eb9fdb24dc3094cb",
    "fabric.json": "056560f220a809880a40cb4c96408e8e9a7f58d1c726d6fa10b2258a0e177d9e",
    "scorecards.csv": "68be8a308f6edd66c7c45f4c0def1379a153905d2165d964c64e42a95d5c35ad",
}

# The demo on its own backend (gac_penrose) for 8 rounds with blocs refreshed
# every round: Divisive cards, feed entries with non-empty balancing peeks and
# about 15.5k ledger postings all reach the artifacts.
PENROSE_8_REFRESH_1_DIGESTS = {
    "metrics.csv": "ca25abfa1905cc728f0198fa71a1680111b821a96c4cf9a8b44a383858bae7f3",
    "feeds.jsonl": "efd9b3578c0a40436d1d15db97db1bcbe8f33addb455cbf8f3f424585c99a753",
    "ledger.csv": "28fa6cfb802c148cc8a554509c7b95b65da6726bdd16cbe46759099300f9f515",
    "fabric.json": "cd7b386a87a25b03a3c605db6ad2312558aa93c9a79b2fafa20c04b87980eb16",
    "scorecards.csv": "ba26e8d4f64f1cf14c35b4f43f1b9e7e6ff870abcf980c19cdfc09df42a2809f",
}


# The same 8 rounds in the popularity baseline (`popularity_only`, psi =
# iota): locks the psi = iota path of every scope.
POPULARITY_8_REFRESH_1_DIGESTS = {
    "metrics.csv": "755c16a5697fbef3f755df9f61c155b2f1ee119eb919d35c873bb835a8510291",
    "feeds.jsonl": "955f9dff68c7f9ba1c55ca42156bf81e558a6d4aaf79275654361a0a5c073d9a",
    "ledger.csv": "f42a6ccf82302fe05cff975becf8e9fcbc52fa91ca9e7d27ca9b824588f81f07",
    "fabric.json": "85a1a615bcc8fc838ac5c577713e905b14b6e745f5a7c847278bb21bb1c6228b",
    "scorecards.csv": "97059c8ffb0cd82df22a979590a9e57736783731cd4015e61504a46badbc56bf",
}


# The same 8 rounds with uniform bloc weighting (`gac_uniform`): locks the
# consensus product under equal weights.
UNIFORM_8_REFRESH_1_DIGESTS = {
    "metrics.csv": "06e702aef2efb42902189856f1f118174b2dd69db1b7a2116ff7937428c327de",
    "feeds.jsonl": "d30842af78075568951574ed799a9aae1cf3a6dfa71f1c21687339066f9bd869",
    "ledger.csv": "c9a158f311bc3cd3749753d81d61237109d0c7bbbaf1cd2b2cdeeb12687d8016",
    "fabric.json": "f4ee9f90148add40c3bddd2a28afb2fe44542bec037a0385f538b5fb2b992f7a",
    "scorecards.csv": "465c5632bb1dc4dcdfead840a563cf96c2c7ef83688828f4c4e491ecb61a8ba3",
}

# The penrose 8 rounds with devotion adapting at rate 0.1. Each demo citizen
# sits in one community, so normalized devotion stays 1 and only the raw
# devotions in fabric.json differ from PENROSE_8_REFRESH_1_DIGESTS; the
# `market` devotion case below carries the adaptation into the feeds.
DEVOTION_8_REFRESH_1_DIGESTS = {
    "metrics.csv": "ca25abfa1905cc728f0198fa71a1680111b821a96c4cf9a8b44a383858bae7f3",
    "feeds.jsonl": "efd9b3578c0a40436d1d15db97db1bcbe8f33addb455cbf8f3f424585c99a753",
    "ledger.csv": "28fa6cfb802c148cc8a554509c7b95b65da6726bdd16cbe46759099300f9f515",
    "fabric.json": "4b028dec655a0bcfbe85a829baf7662ee5d78088bd23d68ddc637d88ec75ee95",
    "scorecards.csv": "ba26e8d4f64f1cf14c35b4f43f1b9e7e6ff870abcf980c19cdfc09df42a2809f",
}

# The demo at 400 citizens for 4 rounds with blocs refreshed every 2 rounds,
# the shape of the benchmark's `crowd` workload: the round-2 refresh clusters
# attitude rows that are mostly duplicates (few contents, sparse reactions),
# and each round draws hundreds of citizens' react streams.
CROWD_400_4_REFRESH_2_DIGESTS = {
    "metrics.csv": "85f92f4c66b6281cf7c413bfb8154a8d67b2c67c84c9e708f4d19f50e4effc8a",
    "feeds.jsonl": "d7c7908745795414b6982d433da617a38315414201de7190c7772ef8c59ed8d7",
    "ledger.csv": "ac9c6a27d73a6d6fe91ce101d4678f5ef3fc4251eb174a85f1b37a69fb27f55a",
    "fabric.json": "2ea219c3e561922ceb0e00b0a90aac75ee9f0919932ac05e57fcea28e665c4de",
    "scorecards.csv": "c4861559005635388e01263b10acd45eb392c450ba6fe53ea82d9403643153c3",
}


@pytest.mark.parametrize("backend, rounds, refresh_interval, popularity_only, sim, digests", [
    ("mf", 2, None, False, {}, MF_DEMO_DIGESTS),
    ("mf", 2, 1, False, {}, MF_REFRESH_1_DIGESTS),
    ("gac_penrose", 8, 1, False, {}, PENROSE_8_REFRESH_1_DIGESTS),
    ("gac_penrose", 8, 1, True, {}, POPULARITY_8_REFRESH_1_DIGESTS),
    ("gac_uniform", 8, 1, False, {}, UNIFORM_8_REFRESH_1_DIGESTS),
    ("gac_penrose", 8, 1, False, {"devotion_adapt_rate": 0.1}, DEVOTION_8_REFRESH_1_DIGESTS),
], ids=["demo", "refresh_1", "penrose_8_refresh_1", "popularity_8_refresh_1",
        "uniform_8_refresh_1", "devotion_8_refresh_1"])
def test_mf_demo_artifacts_match_digests(tmp_path, backend, rounds, refresh_interval,
                                         popularity_only, sim, digests):
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    doc["scoring"]["backend"] = backend
    doc["scoring"]["popularity_only"] = popularity_only
    doc["sim"]["rounds"] = rounds
    if refresh_interval is not None:
        doc["sim"]["refresh_interval"] = refresh_interval
    doc["sim"].update(sim)
    scenario = tmp_path / "demo_mf.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests


def test_crowd_shaped_artifacts_match_digests(tmp_path):
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    doc["population"]["n_citizens"] = 400
    doc["sim"]["rounds"] = 4
    doc["sim"]["refresh_interval"] = 2
    scenario = tmp_path / "crowd.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in CROWD_400_4_REFRESH_2_DIGESTS}
    assert got == CROWD_400_4_REFRESH_2_DIGESTS


# The benchmark's `market` scenario (instance 0) for 6 rounds with blocs
# refreshed every 2 rounds. Its citizens sit in two overlapping communities
# each, so citizen-scope Divisive cards and their balancing sets reach the
# artifacts: 11 community and 74 citizen Divisive cards in the last round, 80
# of them with a non-empty balancing set, and about 29.5k ledger postings.
MARKET_6_REFRESH_2_DIGESTS = {
    "metrics.csv": "c6803b5ddf016c211c58f31681e09ddce09a28bd3a24bbfc7e82ee02118dd416",
    "feeds.jsonl": "e05ee112546bb894c38b5e8f95f586d228794c10f94df9ab41bd278849bb1062",
    "ledger.csv": "cd4885ea2737460c6510cfbfccab15a6ba8006a7f653e0874e112f1ecd9effe5",
    "fabric.json": "397ad533ae4793114b9201935270ccd6f1c41760ae589fb19a3b3e9d1a89e596",
    "scorecards.csv": "d0d305a5f4af701a7af1f6ebc75812f3420ec7ac4961a61660d959ca7605344f",
}


def _load_workloads():
    """perfbench/workloads.py from the checkout, read only."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["crowd", "market", "mf"])
def test_benchmark_instance_matches_golden_json(tmp_path, workload):
    """Instance 10 of each benchmark workload, at its full length, writes the
    artifacts whose digests perfbench/golden.json records: the benchmark's
    correctness gate, checked here (golden.json is read, never written)."""
    workloads = _load_workloads()
    base = json.loads(DEMO.read_text(encoding="utf-8"))
    doc = workloads.scenario(base, workload, 10)
    scenario = tmp_path / f"{workload}.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    want = golden[workload][str(workloads.instance(10))]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in want} == want
    assert len(want) == 5


# The same `market` run with devotion adapting at rate 0.1: its citizens sit
# in two communities each, so the adapted devotions reweight the attention
# numerator and reach every artifact.
MARKET_6_DEVOTION_DIGESTS = {
    "metrics.csv": "0048979d7bd4704a3f5ecfa723b370cc8e359cd460ddf3ed48bfe2e820215847",
    "feeds.jsonl": "cf6dec682e06598f86bdae7499d85049a61ce72b93b0875e5946cb2d63d215f5",
    "ledger.csv": "4943efb0735b2e5d12ca0045d5a9d3e5b041d400f73b65480bd7709141c3262b",
    "fabric.json": "3242ea861d245f06f19ccb97de7a389a13924468dce344a0ab49b45620286376",
    "scorecards.csv": "c5c89dbedfa1eb4a037a77765bb20ca3fa48310e1da044660d5f8612360816d4",
}


def _market_digests(tmp_path, **sim) -> dict[str, str]:
    base = json.loads(DEMO.read_text(encoding="utf-8"))
    doc = _load_workloads().scenario(base, "market", 0, rounds=6)
    doc["sim"]["refresh_interval"] = 2
    doc["sim"].update(sim)
    scenario = tmp_path / "market.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in MARKET_6_REFRESH_2_DIGESTS}


def test_market_artifacts_match_digests(tmp_path):
    assert _market_digests(tmp_path) == MARKET_6_REFRESH_2_DIGESTS


def test_market_devotion_artifacts_match_digests(tmp_path):
    assert _market_digests(tmp_path, devotion_adapt_rate=0.1) == MARKET_6_DEVOTION_DIGESTS


# `plural score` on the fabric and reactions of the 6-round `market` run
# above, with each GAC weighting: locks the bytes of its scorecards CSV.
# "remapped" is the same log with ids the run never makes: content ids moved
# to sparse, negative and near-±2^63 values (not in id order), the rows
# reversed, and one more row from a citizen outside the fabric.
MARKET_SCORE_DIGESTS = {
    ("gac_penrose", "as_run"): "0de50b0c82d59f22d22b482e21b4f2f2b56a702b65fb5cb960ea5f73cb3de9d0",
    ("gac_uniform", "as_run"): "d3ca5ba93d7192c34b695c534456dd27212e6a00290213dbfe40a862ca1b7ca4",
    ("gac_penrose", "remapped"): "e0e5db61a73095b01c2f83fb12f0fd0777eba6f0152ff66ec54c034fae77c772",
}

_EXTREME_IDS = [-2 ** 63, 2 ** 63 - 1, -2 ** 63 + 1, 2 ** 63 - 2]


def _remapped_id(content: int) -> int:
    if content < len(_EXTREME_IDS):
        return _EXTREME_IDS[content]
    return (-1) ** content * (1_000_003 * content + 17)


def _remapped_log(text: str) -> str:
    head, *rows = text.splitlines()
    fields = [row.split(",") for row in rows]
    out = [",".join([p, str(_remapped_id(int(m))), *rest]) for p, m, *rest in fields]
    out.reverse()
    out.append(f"{10 ** 12},{_remapped_id(5)},5,1,1")
    return "\n".join([head] + out) + "\n"


@pytest.fixture(scope="module")
def market_snapshot(tmp_path_factory):
    """fabric.json and, by log name, reactions CSV paths from the 6-round
    `market` run."""
    base = json.loads(DEMO.read_text(encoding="utf-8"))
    doc = _load_workloads().scenario(base, "market", 0, rounds=6)
    doc["sim"]["refresh_interval"] = 2
    result = simulation.run(ScenarioConfig.from_dict(doc))
    tmp = tmp_path_factory.mktemp("market_snapshot")
    fabric = tmp / "fabric.json"
    fabric.write_text(result.fabric.to_json(indent=2), encoding="utf-8")
    text = result.reactions.to_csv()
    logs = {"as_run": text, "remapped": _remapped_log(text)}
    for name, log in logs.items():
        (tmp / f"{name}.csv").write_text(log, encoding="utf-8")
    return fabric, {name: tmp / f"{name}.csv" for name in logs}


@pytest.mark.parametrize("backend, log", [
    pytest.param(backend, log, id=backend if log == "as_run" else f"{backend}-{log}")
    for backend, log in sorted(MARKET_SCORE_DIGESTS)])
def test_market_score_output_matches_digest(tmp_path, market_snapshot, backend, log):
    fabric, logs = market_snapshot
    out = tmp_path / "scorecards.csv"
    assert main(["score", "--reactions", str(logs[log]), "--fabric", str(fabric),
                 "--backend", backend, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MARKET_SCORE_DIGESTS[(backend, log)]
