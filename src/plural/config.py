"""Declarative scenario configuration.

A scenario is a versioned JSON document describing the synthetic population,
the community templates, content creation, scoring/ranking/economy knobs and
the simulation schedule. Validation reports the JSON path of the offending
field. Load -> serialize -> load is the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Any, Optional

from ._rng import SEED_MAX
from .econ import EconParams
from .errors import ConfigError
from .rank import RankingParams
from .score import ScoringParams

SCHEMA_VERSION = 1


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    return value


def _number(value: Any, path: str, lo: float | None = None, hi: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(path, f"must be a finite number, got {value}")
    if lo is not None and v < lo:
        raise ConfigError(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(path, f"must be <= {hi}, got {v}")
    return v


def _coordinates(value: Any, path: str, dim: int) -> list[float]:
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(path, f"expected {dim} coordinates")
    return [_number(x, f"{path}[{j}]") for j, x in enumerate(value)]


_INT64_MAX = 2 ** 63 - 1


def _integer(value: Any, path: str, lo: int, hi: int = _INT64_MAX) -> int:
    """An integer in [lo, hi]; hi defaults to int64 max, as numpy draws and
    indexes take no more."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if value < lo:
        raise ConfigError(path, f"must be >= {lo}, got {value}")
    if value > hi:
        bound = " (int64)" if hi == _INT64_MAX else ""
        raise ConfigError(path, f"must be <= {hi}{bound}, got {value}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {type(value).__name__}")
    return value


@dataclass
class PopulationBloc:
    fraction: float
    center: list[float]
    sigma: float


@dataclass
class PopulationConfig:
    n_citizens: int
    ideology_dim: int
    blocs: list[PopulationBloc]
    citizen_lambda: float = 0.0
    subscriber_fraction: float = 0.0
    citizen_balance: float = 0.0
    accepts_personal_ads_fraction: float = 0.0


@dataclass
class CommunityTemplate:
    blocs: list[int]
    lambda_: float = 1.0
    balance: float = 0.0
    admin_registered: bool = True
    price_per_lambda_impression: Optional[float] = None


@dataclass
class ContentConfig:
    creators_per_round: int = 5
    stake_mean: float = 0.05
    content_noise: float = 0.4
    n_topics: int = 5


@dataclass
class AdDealConfig:
    community: int
    price_per_impression: float
    accepted: bool = True


@dataclass
class AdvertiserConfig:
    budget: float
    deals: list[AdDealConfig] = field(default_factory=list)
    personal_targeting: bool = False
    personal_price: float = 0.0
    items_per_round: int = 0
    position: Optional[list[float]] = None
    standing_purchase: Optional[dict] = None   # {"community","amount","price"}
    seed_stake: float = 0.0


@dataclass
class SimulationConfig:
    rounds: int = 30
    refresh_interval: int = 5
    attitude_feedback_gamma: float = 0.1
    attitude_temperature: float = 1.0
    engagement_scale: float = 1.0
    devotion_adapt_rate: float = 0.0


@dataclass
class ScenarioConfig:
    seed: int
    population: PopulationConfig
    communities: list[CommunityTemplate]
    content: ContentConfig
    advertisers: list[AdvertiserConfig]
    scoring: ScoringParams
    ranking: RankingParams
    econ: EconParams
    sim: SimulationConfig
    schema_version: int = SCHEMA_VERSION

    # -- parsing ---------------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError("", "scenario document must be a JSON object")
        version = _integer(_require(doc, "schema_version", ""), "schema_version", lo=1)
        if version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"unsupported version {version}")
        seed = _integer(_require(doc, "seed", ""), "seed", lo=0, hi=SEED_MAX)

        pop_doc = _object(_require(doc, "population", ""), "population")
        blocs = []
        blocs_doc = _require(pop_doc, "blocs", "population")
        if not isinstance(blocs_doc, list) or not blocs_doc:
            raise ConfigError("population.blocs", "must be a non-empty array")
        dim = _integer(_require(pop_doc, "ideology_dim", "population"),
                       "population.ideology_dim", lo=1)
        total_fraction = 0.0
        for i, b in enumerate(blocs_doc):
            p = f"population.blocs[{i}]"
            b = _object(b, p)
            fraction = _number(_require(b, "fraction", p), f"{p}.fraction", lo=0.0, hi=1.0)
            center = _coordinates(_require(b, "center", p), f"{p}.center", dim)
            sigma = _number(_require(b, "sigma", p), f"{p}.sigma", lo=0.0)
            blocs.append(PopulationBloc(fraction, center, sigma))
            total_fraction += fraction
        if abs(total_fraction - 1.0) > 1e-9:
            raise ConfigError("population.blocs", f"fractions must sum to 1, got {total_fraction}")
        population = PopulationConfig(
            n_citizens=_integer(_require(pop_doc, "n_citizens", "population"),
                                "population.n_citizens", lo=0),
            ideology_dim=dim,
            blocs=blocs,
            citizen_lambda=_number(pop_doc.get("citizen_lambda", 0.0),
                                   "population.citizen_lambda", lo=0.0),
            subscriber_fraction=_number(pop_doc.get("subscriber_fraction", 0.0),
                                        "population.subscriber_fraction", lo=0.0, hi=1.0),
            citizen_balance=_number(pop_doc.get("citizen_balance", 0.0),
                                    "population.citizen_balance", lo=0.0),
            accepts_personal_ads_fraction=_number(
                pop_doc.get("accepts_personal_ads_fraction", 0.0),
                "population.accepts_personal_ads_fraction", lo=0.0, hi=1.0),
        )

        comm_doc = _require(doc, "communities", "")
        if not isinstance(comm_doc, list) or not comm_doc:
            raise ConfigError("communities", "must be a non-empty array")
        communities = []
        for i, c in enumerate(comm_doc):
            p = f"communities[{i}]"
            c = _object(c, p)
            bloc_ids = _require(c, "blocs", p)
            if not isinstance(bloc_ids, list) or not bloc_ids:
                raise ConfigError(f"{p}.blocs", "must be a non-empty array of bloc indices")
            for j, b in enumerate(bloc_ids):
                idx = _integer(b, f"{p}.blocs[{j}]", lo=0)
                if idx >= len(blocs):
                    raise ConfigError(f"{p}.blocs[{j}]", f"bloc index {idx} out of range")
            price = c.get("price_per_lambda_impression")
            communities.append(CommunityTemplate(
                blocs=[int(b) for b in bloc_ids],
                lambda_=_number(c.get("lambda", 1.0), f"{p}.lambda", lo=0.0),
                balance=_number(c.get("balance", 0.0), f"{p}.balance", lo=0.0),
                admin_registered=_boolean(c.get("admin_registered", True),
                                          f"{p}.admin_registered"),
                price_per_lambda_impression=None if price is None else
                    _number(price, f"{p}.price_per_lambda_impression", lo=0.0),
            ))

        content_doc = _object(doc.get("content", {}), "content")
        content = ContentConfig(
            creators_per_round=_integer(content_doc.get("creators_per_round", 5),
                                        "content.creators_per_round", lo=0),
            stake_mean=_number(content_doc.get("stake_mean", 0.05),
                               "content.stake_mean", lo=0.0),
            content_noise=_number(content_doc.get("content_noise", 0.4),
                                  "content.content_noise", lo=0.0),
            n_topics=_integer(content_doc.get("n_topics", 5), "content.n_topics", lo=1),
        )

        advertisers = []
        for i, a in enumerate(_array(doc.get("advertisers", []), "advertisers")):
            p = f"advertisers[{i}]"
            a = _object(a, p)
            deals = []
            for j, d in enumerate(_array(a.get("deals", []), f"{p}.deals")):
                dp = f"{p}.deals[{j}]"
                d = _object(d, dp)
                community = _integer(_require(d, "community", dp), f"{dp}.community", lo=0)
                if community >= len(communities):
                    raise ConfigError(f"{dp}.community", f"community index {community} out of range")
                deals.append(AdDealConfig(
                    community=community,
                    price_per_impression=_number(_require(d, "price_per_impression", dp),
                                                 f"{dp}.price_per_impression", lo=0.0),
                    accepted=_boolean(d.get("accepted", True), f"{dp}.accepted")))
            purchase = a.get("standing_purchase")
            if purchase is not None:
                pp = f"{p}.standing_purchase"
                purchase = _object(purchase, pp)
                community = _integer(_require(purchase, "community", pp),
                                     f"{pp}.community", lo=0)
                if community >= len(communities):
                    raise ConfigError(f"{pp}.community",
                                      f"community index {community} out of range")
                purchase = {
                    "community": community,
                    "amount": _number(_require(purchase, "amount", pp), f"{pp}.amount", lo=0.0),
                    "price": _number(_require(purchase, "price", pp), f"{pp}.price", lo=0.0),
                }
            advertisers.append(AdvertiserConfig(
                budget=_number(_require(a, "budget", p), f"{p}.budget", lo=0.0),
                deals=deals,
                personal_targeting=_boolean(a.get("personal_targeting", False),
                                            f"{p}.personal_targeting"),
                personal_price=_number(a.get("personal_price", 0.0),
                                       f"{p}.personal_price", lo=0.0),
                items_per_round=_integer(a.get("items_per_round", 0),
                                         f"{p}.items_per_round", lo=0),
                position=None if a.get("position") is None else
                    _coordinates(a["position"], f"{p}.position", dim),
                standing_purchase=purchase,
                seed_stake=_number(a.get("seed_stake", 0.0), f"{p}.seed_stake", lo=0.0),
            ))

        scoring_doc = _object(doc.get("scoring", {}), "scoring")
        scoring_kwargs: dict[str, Any] = {}
        if "backend" in scoring_doc:
            backend = scoring_doc["backend"]
            if backend not in ScoringParams.BACKENDS:
                raise ConfigError("scoring.backend",
                                  f"unknown backend {backend!r}; valid: {', '.join(ScoringParams.BACKENDS)}")
            scoring_kwargs["backend"] = backend
        for key, lo, hi in (("alpha", 0.0, None), ("label_floor", 0.0, 1.0),
                            ("half_life", None, None), ("delta_tol", 0.0, 1.0),
                            ("mf_reg", 0.0, None), ("mf_lr", 0.0, None)):
            if key in scoring_doc:
                scoring_kwargs[key] = _number(scoring_doc[key], f"scoring.{key}", lo, hi)
        if "mf_epochs" in scoring_doc:
            scoring_kwargs["mf_epochs"] = _integer(scoring_doc["mf_epochs"],
                                                   "scoring.mf_epochs", lo=1)
        for key in ("topic_overlap_required", "popularity_only"):
            if key in scoring_doc:
                scoring_kwargs[key] = _boolean(scoring_doc[key], f"scoring.{key}")
        try:
            scoring = ScoringParams(**scoring_kwargs)
        except ValueError as exc:
            raise ConfigError("scoring", str(exc)) from None

        ranking_doc = _object(doc.get("ranking", {}), "ranking")
        ranking_kwargs: dict[str, Any] = {}
        if "feed_size" in ranking_doc:
            ranking_kwargs["feed_size"] = _integer(ranking_doc["feed_size"],
                                                   "ranking.feed_size", lo=1)
        if "seed_rounds" in ranking_doc:
            ranking_kwargs["seed_rounds"] = _integer(ranking_doc["seed_rounds"],
                                                     "ranking.seed_rounds", lo=0)
        for key, lo, hi in (("epsilon", 0.0, 1.0), ("stake_scale", 0.0, None)):
            if key in ranking_doc:
                ranking_kwargs[key] = _number(ranking_doc[key], f"ranking.{key}", lo, hi)
        try:
            ranking = RankingParams(**ranking_kwargs)
        except ValueError as exc:
            raise ConfigError("ranking", str(exc)) from None

        econ_doc = _object(doc.get("econ", {}), "econ")
        econ_kwargs: dict[str, Any] = {}
        for key, lo, hi in (("platform_fee", 0.0, 1.0), ("creator_share", 0.0, 1.0),
                            ("default_price_per_lambda_impression", 0.0, None),
                            ("standing_reward_rate", 0.0, None)):
            if key in econ_doc:
                econ_kwargs[key] = _number(econ_doc[key], f"econ.{key}", lo, hi)
        try:
            econ = EconParams(**econ_kwargs)
        except ValueError as exc:
            raise ConfigError("econ", str(exc)) from None

        sim_doc = _object(doc.get("sim", {}), "sim")
        sim_kwargs: dict[str, Any] = {}
        for key in ("rounds", "refresh_interval"):
            if key in sim_doc:
                sim_kwargs[key] = _integer(sim_doc[key], f"sim.{key}",
                                           lo=0 if key == "rounds" else 1)
        for key, lo, hi in (("attitude_feedback_gamma", 0.0, 1.0),
                            ("attitude_temperature", 1e-9, None),
                            ("engagement_scale", 0.0, None),
                            ("devotion_adapt_rate", 0.0, None)):
            if key in sim_doc:
                sim_kwargs[key] = _number(sim_doc[key], f"sim.{key}", lo, hi)
        sim = SimulationConfig(**sim_kwargs)

        return cls(seed=seed, population=population, communities=communities,
                   content=content, advertisers=advertisers, scoring=scoring,
                   ranking=ranking, econ=econ, sim=sim, schema_version=version)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "population": {
                "n_citizens": self.population.n_citizens,
                "ideology_dim": self.population.ideology_dim,
                "blocs": [{"fraction": b.fraction, "center": b.center, "sigma": b.sigma}
                          for b in self.population.blocs],
                "citizen_lambda": self.population.citizen_lambda,
                "subscriber_fraction": self.population.subscriber_fraction,
                "citizen_balance": self.population.citizen_balance,
                "accepts_personal_ads_fraction": self.population.accepts_personal_ads_fraction,
            },
            "communities": [{
                "blocs": c.blocs, "lambda": c.lambda_, "balance": c.balance,
                "admin_registered": c.admin_registered,
                **({"price_per_lambda_impression": c.price_per_lambda_impression}
                   if c.price_per_lambda_impression is not None else {}),
            } for c in self.communities],
            "content": asdict(self.content),
            "advertisers": [{
                "budget": a.budget,
                "deals": [asdict(d) for d in a.deals],
                "personal_targeting": a.personal_targeting,
                "personal_price": a.personal_price,
                "items_per_round": a.items_per_round,
                **({"position": a.position} if a.position is not None else {}),
                **({"standing_purchase": a.standing_purchase}
                   if a.standing_purchase is not None else {}),
                "seed_stake": a.seed_stake,
            } for a in self.advertisers],
            "scoring": {
                "backend": self.scoring.backend, "alpha": self.scoring.alpha,
                "label_floor": self.scoring.label_floor, "half_life": self.scoring.half_life,
                "delta_tol": self.scoring.delta_tol,
                "topic_overlap_required": self.scoring.topic_overlap_required,
                "popularity_only": self.scoring.popularity_only,
                "mf_reg": self.scoring.mf_reg, "mf_epochs": self.scoring.mf_epochs,
                "mf_lr": self.scoring.mf_lr,
            },
            "ranking": {
                "feed_size": self.ranking.feed_size, "epsilon": self.ranking.epsilon,
                "stake_scale": self.ranking.stake_scale,
                "seed_rounds": self.ranking.seed_rounds,
            },
            "econ": asdict(self.econ),
            "sim": asdict(self.sim),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def loads(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from None
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(str(path), "scenario file not found")
        return cls.loads(p.read_text(encoding="utf-8"))
