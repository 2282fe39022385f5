"""The benchmark's workloads: scenarios derived from scenarios/demo.json.

Each workload is a fixed transformation of the checked-in demo scenario; the
benchmark seed only picks the scenario seed, so the same seed always gives
the same scenario file. The program under test sees nothing but that file.

The input family is finite on purpose: a seed selects one of INSTANCES
scenario seeds, and every instance has recorded artifact digests in
golden.json, so the outputs of every run are checked byte for byte.

There are three workloads so that each run can measure for longer within
the benchmark's time budget. The demo scenario as checked in is not one of
them: market exercises the same catalog-growth scoring costs, and more.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

BASE_SCENARIO = Path("scenarios") / "demo.json"
INSTANCES = 32


def _crowd(doc: dict) -> None:
    """Many citizens over few rounds: per-citizen rank, react and export,
    and fuzzy c-means detection, dominate; the catalog stays small."""
    doc["population"]["n_citizens"] = 800
    doc["sim"]["rounds"] = 6
    doc["sim"]["refresh_interval"] = 2


def _market(doc: dict) -> None:
    """Overlapping communities, subscribers and advertisers on small budgets:
    balancing sets and settlement carry weight, and the ledger sees clamps,
    skipped ad payments and a standing purchase."""
    # Blocs 0 and 2 lean left, 1 and 3 right. Each community mixes a left
    # and a right bloc and each citizen sits in two of them, so every
    # community has opposed subcommunities and Divisive cards to balance.
    doc["communities"] = [
        {"blocs": [0, 1], "lambda": 1.0, "balance": 40.0, "admin_registered": True},
        {"blocs": [2, 3], "lambda": 1.0, "balance": 40.0, "admin_registered": True},
        {"blocs": [0, 3], "lambda": 1.0, "balance": 2.0, "admin_registered": True},
        {"blocs": [1, 2], "lambda": 1.0, "balance": 2.0, "admin_registered": True,
         "price_per_lambda_impression": 0.02},
    ]
    doc["population"].update(n_citizens=150, citizen_lambda=0.5, subscriber_fraction=0.4,
                             citizen_balance=0.05, accepts_personal_ads_fraction=0.3)
    doc["advertisers"] = [
        {"budget": 8.0, "deals": [{"community": 0, "price_per_impression": 0.02},
                                  {"community": 2, "price_per_impression": 0.02}],
         "personal_targeting": True, "personal_price": 0.01, "items_per_round": 1,
         "position": [-0.4],
         "standing_purchase": {"community": 0, "amount": 1.0, "price": 0.5},
         "seed_stake": 0.1},
        {"budget": 6.0, "deals": [{"community": 1, "price_per_impression": 0.03},
                                  {"community": 3, "price_per_impression": 0.01}],
         "personal_targeting": True, "personal_price": 0.02, "items_per_round": 1,
         "position": [0.4],
         "standing_purchase": {"community": 3, "amount": 1.0, "price": 0.5},
         "seed_stake": 0.1},
    ]
    doc["sim"]["rounds"] = 12


def _mf(doc: dict) -> None:
    """The matrix-factorization bridging backend, which no other workload
    calls; its per-community fits are nearly all of the run."""
    doc["scoring"]["backend"] = "mf"
    doc["population"]["n_citizens"] = 400
    doc["sim"]["rounds"] = 2
    # With enough posts that both communities get some every round, and
    # engagement probability equal to the attention share, each citizen casts
    # one vote per round in expectation, so the vote count the fits run on
    # (and with it the run time) varies little from seed to seed.
    doc["content"]["creators_per_round"] = 16
    doc["sim"]["engagement_scale"] = 1.0


WORKLOADS = {"crowd": _crowd, "market": _market, "mf": _mf}


def instance(seed: int) -> int:
    """Scenario seed for a benchmark seed."""
    return seed % INSTANCES


def scenario(base: dict, workload: str, seed: int, rounds: int | None = None) -> dict:
    """The scenario document for one workload and benchmark seed."""
    doc = copy.deepcopy(base)
    WORKLOADS[workload](doc)
    doc["seed"] = instance(seed)
    if rounds is not None:
        doc["sim"]["rounds"] = rounds
    return doc


def write_scenario(root: Path, work: Path, workload: str, seed: int,
                   rounds: int | None = None) -> Path:
    """Generate the scenario file under `work` and return its path."""
    base = json.loads((root / BASE_SCENARIO).read_text(encoding="utf-8"))
    doc = scenario(base, workload, seed, rounds)
    path = work / f"{workload}-{instance(seed)}-{doc['sim']['rounds']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
