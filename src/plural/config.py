"""Declarative scenario configuration.

A scenario is a versioned JSON document describing the synthetic population,
the community templates, content creation, scoring/ranking/economy knobs and
the simulation schedule. Each JSON object is one of the dataclasses below,
and each field is declared once, on its dataclass:

- its kind comes from the annotation: bool, int, float or str, a nested
  section, `list[...]` for a JSON array, `Optional[...]` for a field that may
  be null (and is left out of `to_dict` when it is);
- its default is the dataclass default, and a field without one is required;
- its metadata, written with `_field`, holds the rest: `key` where the JSON
  key differs from the attribute name, the bounds `lo`/`hi` (inclusive) and
  `gt`/`lt` (strict), `choices`, and `nonempty` for an array. Bounds on an
  array apply to its elements. Numbers must be finite, and every integer is
  also capped at int64 max, as numpy draws and indexes take no more.

`from_dict` walks a document along these declarations and rejects any key
that no field declares; `to_dict` walks back. Building a section, from JSON
or in Python, runs `check` over its declared fields and then the section's
cross-field rules. Every failure is a ConfigError naming the JSON path of
the offending field. Load -> serialize -> load is the identity.
"""

import dataclasses
import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any, NamedTuple, Optional

from ._rng import SEED_MAX
from .errors import ConfigError

SCHEMA_VERSION = 1

FUNDS_TOL = 1e-12   # how far any payment may exceed its payer's balance

_INT64_MAX = 2 ** 63 - 1
# The scalar kinds a field may have, with their names for error messages.
_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _field(default: Any = MISSING, *, factory: Any = MISSING, key: str | None = None,
           **checks: Any) -> Any:
    """A declared field: its default (or `factory`), JSON key and checks."""
    meta = dict(checks, key=key) if key else checks
    return field(default=default, default_factory=factory, metadata=meta)


class _Declared(NamedTuple):
    name: str
    key: str
    kind: type              # a scalar type or a section
    optional: bool          # Optional[...]: may be null
    array: bool             # list[...]: a JSON array of `kind`
    meta: Any
    required: bool


@functools.cache
def _declared(cls: type) -> tuple[_Declared, ...]:
    """The declared fields of a section, read once per class. Annotations are
    live objects, as this module does not postpone their evaluation."""
    out = []
    for f in dataclasses.fields(cls):
        kind = f.type
        optional = typing.get_origin(kind) is typing.Union
        kind = typing.get_args(kind)[0] if optional else kind
        array = typing.get_origin(kind) is list
        kind = typing.get_args(kind)[0] if array else kind
        out.append(_Declared(f.name, f.metadata.get("key", f.name), kind, optional, array,
                             f.metadata, f.default is MISSING and f.default_factory is MISSING))
    return tuple(out)


def _join(path: str, sub: str) -> str:
    return f"{path}.{sub}" if path and sub else path or sub


def _scalar(kind: type, value: Any, path: str) -> Any:
    """`value` as a scalar of `kind`; ints are accepted, as floats, for numbers."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(path, f"expected {_SCALARS[kind]}, got {type(value).__name__}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _read(kind: type, value: Any, path: str) -> Any:
    """The scalar or section of `kind` that the JSON `value` at `path` holds."""
    if kind in _SCALARS:
        return _scalar(kind, value, path)
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    declared = _declared(kind)
    keys = {d.key for d in declared}
    for key in value:
        if key not in keys:
            raise ConfigError(_join(path, key), "unknown field")
    kwargs = {}
    for d in declared:
        sub = _join(path, d.key)
        if d.key not in value:
            if d.required:
                raise ConfigError(sub, "missing required field")
        elif value[d.key] is None and d.optional:
            kwargs[d.name] = None
        elif d.array:
            items = value[d.key]
            if not isinstance(items, list):
                raise ConfigError(sub, f"expected an array, got {type(items).__name__}")
            kwargs[d.name] = [_read(d.kind, v, f"{sub}[{i}]") for i, v in enumerate(items)]
        else:
            kwargs[d.name] = _read(d.kind, value[d.key], sub)
    try:
        return kind(**kwargs)
    except ConfigError as exc:
        raise ConfigError(_join(path, exc.path), exc.message) from None


def _dump(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {d.key: _dump(getattr(value, d.name)) for d in _declared(type(value))
                if getattr(value, d.name) is not None}
    if isinstance(value, list):
        return [_dump(v) for v in value]
    return value


def _check_scalar(kind: type, value: Any, meta: Any, path: str) -> None:
    v = _scalar(kind, value, path)
    if kind is float and not math.isfinite(v):
        raise ConfigError(path, f"must be a finite number, got {value}")
    hi = meta.get("hi", _INT64_MAX if kind is int else None)
    if "lo" in meta and v < meta["lo"]:
        raise ConfigError(path, f"must be >= {meta['lo']}, got {v}")
    if hi is not None and v > hi:
        bound = " (int64)" if kind is int and hi == _INT64_MAX else ""
        raise ConfigError(path, f"must be <= {hi}{bound}, got {v}")
    if "gt" in meta and not v > meta["gt"]:
        raise ConfigError(path, f"must be > {meta['gt']}, got {v}")
    if "lt" in meta and not v < meta["lt"]:
        raise ConfigError(path, f"must be < {meta['lt']}, got {v}")
    if "choices" in meta and v not in meta["choices"]:
        raise ConfigError(path, f"unknown value {v!r}; valid: {', '.join(meta['choices'])}")


def check(section: Any) -> None:
    """Check each declared field of `section` against its kind and bounds.
    Nested sections are not visited: each checked itself when it was built."""
    for d in _declared(type(section)):
        value = getattr(section, d.name)
        if value is None and d.optional:
            continue
        if d.array and d.meta.get("nonempty") and not value:
            raise ConfigError(d.key, "must be a non-empty array")
        if d.kind not in _SCALARS:
            continue
        if d.array:
            for i, v in enumerate(value):
                _check_scalar(d.kind, v, d.meta, f"{d.key}[{i}]")
        else:
            _check_scalar(d.kind, value, d.meta, d.key)


class _Section:
    """Base of every section: building one checks its declared fields."""

    def __post_init__(self) -> None:
        check(self)


def _check_coordinates(value: list[float] | None, dim: int, path: str) -> None:
    if value is not None and len(value) != dim:
        raise ConfigError(path, f"expected {dim} coordinates")


def _check_index(index: int, count: int, what: str, path: str) -> None:
    if index >= count:
        raise ConfigError(path, f"{what} index {index} out of range")


@dataclass
class PopulationBloc(_Section):
    fraction: float = _field(lo=0.0, hi=1.0)
    center: list[float]
    sigma: float = _field(lo=0.0)


@dataclass
class PopulationConfig(_Section):
    n_citizens: int = _field(lo=0)
    ideology_dim: int = _field(lo=1)
    blocs: list[PopulationBloc] = _field(nonempty=True)
    citizen_lambda: float = _field(0.0, lo=0.0)
    subscriber_fraction: float = _field(0.0, lo=0.0, hi=1.0)
    citizen_balance: float = _field(0.0, lo=0.0)
    accepts_personal_ads_fraction: float = _field(0.0, lo=0.0, hi=1.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        total = 0.0
        for i, bloc in enumerate(self.blocs):
            _check_coordinates(bloc.center, self.ideology_dim, f"blocs[{i}].center")
            total += bloc.fraction
        if abs(total - 1.0) > 1e-9:
            raise ConfigError("blocs", f"fractions must sum to 1, got {total}")


@dataclass
class CommunityTemplate(_Section):
    blocs: list[int] = _field(lo=0, nonempty=True)
    lambda_: float = _field(1.0, key="lambda", lo=0.0)
    balance: float = _field(0.0, lo=0.0)
    admin_registered: bool = True
    price_per_lambda_impression: Optional[float] = _field(None, lo=0.0)


@dataclass
class ContentConfig(_Section):
    creators_per_round: int = _field(5, lo=0)
    stake_mean: float = _field(0.05, lo=0.0)
    content_noise: float = _field(0.4, lo=0.0)
    n_topics: int = _field(5, lo=1)


@dataclass
class AdDealConfig(_Section):
    community: int = _field(lo=0)
    price_per_impression: float = _field(lo=0.0)
    accepted: bool = True


@dataclass
class StandingPurchase(_Section):
    """Standing an advertiser buys from a community before round 0."""

    community: int = _field(lo=0)
    amount: float = _field(gt=0.0)
    price: float = _field(gt=0.0)


@dataclass
class AdvertiserConfig(_Section):
    budget: float = _field(lo=0.0)
    deals: list[AdDealConfig] = _field(factory=list)
    personal_targeting: bool = False
    personal_price: float = _field(0.0, lo=0.0)
    items_per_round: int = _field(0, lo=0)
    position: Optional[list[float]] = None
    standing_purchase: Optional[StandingPurchase] = None
    seed_stake: float = _field(0.0, lo=0.0)


@dataclass
class ScoringParams(_Section):
    """Knobs for a scoring pass; defaults follow the artifact conventions."""

    backend: str = _field("gac_penrose", choices=("gac_uniform", "gac_penrose", "mf"))
    alpha: float = _field(1.0, lo=0.0)          # Laplace smoothing on bloc approval rates
    label_floor: float = _field(0.1, lo=0.0, hi=1.0)   # below it, neither label applies
    half_life: float = _field(5.0, gt=0.0)      # rounds; interest decay
    delta_tol: float = _field(0.2, lo=0.0, hi=1.0)     # balancing-set divisiveness tolerance
    topic_overlap_required: bool = False
    popularity_only: bool = False               # baseline toggle: psi = iota
    mf_reg: float = _field(0.05, lo=0.0)
    mf_epochs: int = _field(400, lo=1)
    mf_lr: float = _field(0.05, lo=0.0)


@dataclass
class RankingParams(_Section):
    feed_size: int = _field(10, lo=1)
    epsilon: float = _field(0.0, lo=0.0, lt=1.0)   # exploration share of attention
    stake_scale: float = _field(10.0, lo=0.0)       # linear stake -> initial-psi conversion
    seed_rounds: int = _field(2, lo=0)              # rounds a seeding override stays live


@dataclass
class EconParams(_Section):
    platform_fee: float = _field(0.3, lo=0.0, hi=1.0)
    creator_share: float = _field(0.7, lo=0.0, hi=1.0)
    default_price_per_lambda_impression: float = _field(0.01, lo=0.0)
    standing_reward_rate: float = _field(0.05, lo=0.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.platform_fee + self.creator_share > 1.0 + 1e-12:
            raise ConfigError("", "platform_fee + creator_share must not exceed 1")


@dataclass
class SimulationConfig(_Section):
    rounds: int = _field(30, lo=0)
    refresh_interval: int = _field(5, lo=1)
    attitude_feedback_gamma: float = _field(0.1, lo=0.0, hi=1.0)
    attitude_temperature: float = _field(1.0, lo=1e-9)
    engagement_scale: float = _field(1.0, lo=0.0)
    devotion_adapt_rate: float = _field(0.0, lo=0.0)


@dataclass(kw_only=True)
class ScenarioConfig(_Section):
    schema_version: int
    seed: int = _field(lo=0, hi=SEED_MAX)
    population: PopulationConfig
    communities: list[CommunityTemplate] = _field(nonempty=True)
    content: ContentConfig = _field(factory=ContentConfig)
    advertisers: list[AdvertiserConfig] = _field(factory=list)
    scoring: ScoringParams = _field(factory=ScoringParams)
    ranking: RankingParams = _field(factory=RankingParams)
    econ: EconParams = _field(factory=EconParams)
    sim: SimulationConfig = _field(factory=SimulationConfig)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"unsupported version {self.schema_version}")
        n_blocs, n_communities = len(self.population.blocs), len(self.communities)
        for i, community in enumerate(self.communities):
            for j, bloc in enumerate(community.blocs):
                _check_index(bloc, n_blocs, "bloc", f"communities[{i}].blocs[{j}]")
        for i, adv in enumerate(self.advertisers):
            p = f"advertisers[{i}]"
            for j, deal in enumerate(adv.deals):
                _check_index(deal.community, n_communities, "community",
                             f"{p}.deals[{j}].community")
                if any(d.community == deal.community for d in adv.deals[:j]):
                    # each deal would pay for the same impression
                    raise ConfigError(f"{p}.deals[{j}].community",
                                      f"community {deal.community} is in an earlier deal")
            purchase = adv.standing_purchase
            if purchase is not None:
                _check_index(purchase.community, n_communities, "community",
                             f"{p}.standing_purchase.community")
                if not self.communities[purchase.community].admin_registered:
                    raise ConfigError(f"{p}.standing_purchase.community",
                                      f"community {purchase.community} has no registered "
                                      "administrator to sell standing")
                if adv.budget + FUNDS_TOL < purchase.price:
                    raise ConfigError(f"{p}.standing_purchase.price",
                                      f"{purchase.price} exceeds the budget {adv.budget}")
            _check_coordinates(adv.position, self.population.ideology_dim, f"{p}.position")

    @classmethod
    def from_dict(cls, doc: Any) -> "ScenarioConfig":
        return _read(cls, doc, "")

    def to_dict(self) -> dict:
        return _dump(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def loads(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(_parse_json(text, ""))

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(str(path), "scenario file not found")
        try:
            text = read_text(p)
        except ValueError as exc:
            raise ConfigError(str(path), str(exc)) from None
        return cls.from_dict(_parse_json(text, str(path)))


def read_text(path: Path) -> str:
    """The file's UTF-8 text; ValueError if it cannot be read (a directory,
    say) or decoded."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read the file: {exc.strerror}") from None


def _parse_json(text: str, source: str) -> Any:
    """The JSON document in `text`; `source` names it in a ConfigError. The
    ValueError caught covers malformed JSON and an integer literal longer
    than Python's integer-string limit."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigError(source, f"invalid JSON: {exc}") from None
