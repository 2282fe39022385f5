"""Per-community and per-citizen content scoring.

Each piece of content gets, per scope, an interest level (iota), a bridging
score (beta), a divisiveness score with the blocs it is characteristic of
(delta), and the combined score psi = iota * max(beta, delta). Bridging has
three interchangeable backends: a group-aware consensus product with uniform
or square-root ("penrose") bloc weighting, and a rater/item matrix
factorization that reads the partisanship-removed intercept as the score.

A scope is ("community", id) or ("citizen", id). For citizen scopes the
citizen's communities play the role the principal subcommunities play for a
community scope.
"""

from __future__ import annotations

import collections.abc
import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ._rng import derive_rng, derive_seed
from .config import ScoringParams
from .errors import FewerThanTwoBlocs, InsufficientData

Scope = tuple[str, int]

LABEL_BRIDGING = "Bridging"
LABEL_DIVISIVE = "Divisive"
LABEL_NEITHER = "Neither"

REACTIONS_CSV_HEADER = ["citizen_id", "content_id", "round", "exposed", "reaction"]
SCORECARD_CSV_HEADER = ["content_id", "scope_kind", "scope_id", "iota", "beta",
                        "delta", "psi", "label", "characteristic_blocs"]


@dataclass
class ContentItem:
    """A post, targeted at one or more communities.

    `latent_position` is simulation ground truth used only by the generative
    model; scoring and ranking never read it.
    """

    id: int
    creator: int
    topics: set[int] = field(default_factory=set)
    created_round: int = 0
    target_communities: set[int] = field(default_factory=set)
    latent_position: Optional[np.ndarray] = None
    creator_kind: str = "citizen"          # "citizen" | "advertiser"

    def __post_init__(self) -> None:
        if not self.target_communities:
            raise ValueError("content needs at least one target community")
        if self.creator_kind not in ("citizen", "advertiser"):
            raise ValueError(f"bad creator kind {self.creator_kind!r}")


@dataclass(slots=True)
class Interaction:
    """One citizen's record of one content: a record exists only once the
    citizen was exposed to the content."""

    reaction: int      # -1, 0, +1
    round: int


class ReactionMatrix:
    """Sparse (citizen, content) -> reaction record.

    Each `Interaction` is held once and reached from two indexes, by citizen
    and by content. A nonzero reaction implies exposure. Re-recording
    refreshes the round (latest interaction wins).
    """

    def __init__(self) -> None:
        self._by_citizen: dict[int, dict[int, Interaction]] = {}
        self._by_content: dict[int, dict[int, Interaction]] = {}

    def __len__(self) -> int:
        return sum(len(row) for row in self._by_citizen.values())

    def record_exposure(self, citizen: int, content: int, round_: int) -> None:
        row = self._by_citizen.setdefault(citizen, {})
        cell = row.get(content)
        if cell is None:
            cell = row[content] = Interaction(0, round_)
            self._by_content.setdefault(content, {})[citizen] = cell
        else:
            cell.round = max(cell.round, round_)

    def record_reaction(self, citizen: int, content: int, reaction: int, round_: int) -> None:
        if reaction not in (-1, 0, 1):
            raise ValueError("reaction must be -1, 0 or +1")
        self.record_exposure(citizen, content, round_)
        cell = self._by_citizen[citizen][content]
        if reaction != 0:
            cell.reaction = reaction
            cell.round = max(cell.round, round_)

    def get(self, citizen: int, content: int) -> Optional[Interaction]:
        return self._by_citizen.get(citizen, {}).get(content)

    def citizens_for(self, content: int) -> collections.abc.Set[int]:
        """The citizens exposed to the content, as a live read-only set view."""
        return self._by_content.get(content, {}).keys()

    def for_citizen(self, citizen: int) -> dict[int, Interaction]:
        """Live view of the citizen's row; do not mutate."""
        return self._by_citizen.get(citizen, {})

    def by_content(self, content: int) -> Iterator[tuple[int, Interaction]]:
        """The content's records in citizen id order."""
        yield from sorted(self._by_content.get(content, {}).items())

    def contents(self) -> list[int]:
        return sorted(self._by_content)

    def items(self) -> Iterator[tuple[tuple[int, int], Interaction]]:
        for citizen, row in self._by_citizen.items():
            for content, cell in row.items():
                yield (citizen, content), cell

    # CSV interchange: citizen_id, content_id, round, exposed(0/1), reaction.
    # Every held record is an exposure, so `to_csv` writes exposed as 1.

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(REACTIONS_CSV_HEADER)
        for (citizen, content), cell in sorted(self.items()):
            w.writerow([citizen, content, cell.round, 1, cell.reaction])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ReactionMatrix":
        """Parse `to_csv` output; a malformed row raises ValueError naming its line."""
        rm = cls()
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is not None:    # None: empty text, no rows
            missing = [c for c in REACTIONS_CSV_HEADER if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"line 1: missing column(s) {', '.join(missing)}")
        for row in reader:
            line = reader.line_num
            fields = []
            for col in REACTIONS_CSV_HEADER:
                if row[col] is None:
                    raise ValueError(f"line {line}: missing field {col}")
                try:
                    fields.append(int(row[col]))
                except ValueError:
                    raise ValueError(f"line {line}: {col} is not an integer: "
                                     f"{row[col]!r}") from None
            citizen, content, round_, exposed, reaction = fields
            if exposed not in (0, 1):
                raise ValueError(f"line {line}: exposed must be 0 or 1, got {exposed}")
            if reaction != 0 and not exposed:
                raise ValueError(f"line {line}: reaction without exposure at citizen "
                                 f"{citizen}, content {content}")
            if exposed:
                try:
                    rm.record_reaction(citizen, content, reaction, round_)
                except ValueError as exc:
                    raise ValueError(f"line {line}: {exc}") from None
        return rm

    def to_attitudes(self, row_ids: Sequence[int] | None = None,
                     col_ids: Sequence[int] | None = None):
        """Dense signed-reaction matrix for the detection pathway."""
        from .detect import AttitudeMatrix
        rows = sorted(self._by_citizen) if row_ids is None else list(row_ids)
        cols = self.contents() if col_ids is None else list(col_ids)
        values = np.zeros((len(rows), len(cols)))
        ri = {r: i for i, r in enumerate(rows)}
        ci = {c: j for j, c in enumerate(cols)}
        for (p, m), cell in self.items():
            if p in ri and m in ci:
                values[ri[p], ci[m]] = float(cell.reaction)
        return AttitudeMatrix(rows, cols, values)


@dataclass(slots=True)
class ScoreCard:
    """Scores for one content in one scope."""

    content: int
    scope: Scope
    iota: float
    beta: float
    delta: float
    psi: float
    characteristic_blocs: frozenset[int] = frozenset()
    label: str = LABEL_NEITHER
    low_confidence: bool = False


# -- the scoring primitives ---------------------------------------------------
# Each formula is written once, over one content's reaction records as
# `ReactionMatrix.by_content` yields them (sorted by citizen id, which fixes
# the order of every floating-point sum). `score_round` and the per-card
# functions below are callers of these three.

class _Decay(dict):
    """One round's interest decay: 2^(-age/half_life) by integer age, each
    entry computed once with that expression."""

    def __init__(self, current_round: int, half_life: float) -> None:
        super().__init__()
        self.current_round = current_round
        self.half_life = half_life

    def __missing__(self, age: int) -> float:
        value = self[age] = 2.0 ** (-age / self.half_life)
        return value

    def weight(self, cell: Interaction) -> float:
        """One exposure's interest weight: 2^(-age/half_life) * (1 + 0.5*|reaction|)."""
        return self[max(0, self.current_round - cell.round)] * (1.0 + 0.5 * abs(cell.reaction))


def _interest(records: Sequence[tuple[int, Interaction]], members: Collection[int],
              decay: _Decay) -> float:
    if not members:
        return 0.0
    total = 0.0
    for p, cell in records:
        if p in members:
            total += decay.weight(cell)
    return total / len(members)


def _smoothed_rate(records: Sequence[tuple[int, Interaction]], members: Collection[int],
                   alpha: float) -> float:
    pos = neg = 0
    for p, cell in records:
        if p in members:
            if cell.reaction > 0:
                pos += 1
            elif cell.reaction < 0:
                neg += 1
    denom = pos + neg + 2.0 * alpha
    return (pos + alpha) / denom if denom > 0 else 0.5


def interest(reactions: ReactionMatrix, content: int, members: Iterable[int],
             current_round: int, half_life: float) -> float:
    """Time-decayed interaction weight per member of the scope.

    Each exposure contributes 2^(-age/half_life) * (1 + 0.5*|reaction|);
    the sum is divided by the scope size, so a scope where everyone just
    reacted scores 1.5.
    """
    if half_life <= 0:
        raise ValueError("half_life must be > 0")
    return _interest(list(reactions.by_content(content)), set(members),
                     _Decay(current_round, half_life))


def bloc_rates(reactions: ReactionMatrix, content: int,
               blocs: Sequence[Iterable[int]], alpha: float = 1.0) -> np.ndarray:
    """Smoothed approval rate per bloc: (pos + a) / (pos + neg + 2a).

    Blocs with no votes sit at the 0.5 prior, also in the alpha=0 mode.
    """
    records = list(reactions.by_content(content))
    return np.array([_smoothed_rate(records, set(b), alpha) for b in blocs], dtype=float)


def _bloc_weights(sizes: Sequence[int], weighting: str) -> np.ndarray:
    if weighting == "uniform":
        w = np.ones(len(sizes))
    elif weighting == "penrose":
        w = np.sqrt(np.asarray(sizes, dtype=float))
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return w / w.sum()


def consensus_product(rates: np.ndarray, weights: np.ndarray) -> float:
    """Weighted geometric mean of bloc rates; exact under consensus.

    Entries with zero weight are ignored: the product is 0 only when a
    positively weighted rate is <= 0.
    """
    if np.all(rates == rates[0]):
        return float(rates[0])
    if np.any(rates[weights > 0] <= 0.0):
        return 0.0
    return float(np.exp(np.sum(weights * np.log(np.where(rates > 0, rates, 1.0)))))


def bridging_gac(reactions: ReactionMatrix, content: int,
                 blocs: Sequence[Iterable[int]], weighting: str = "penrose",
                 alpha: float = 1.0) -> float:
    """Group-aware consensus bridging score in [0, 1].

    The product form means dissent in any bloc suppresses the score; penrose
    weighting gives larger blocs more, but less-than-proportional, influence.
    """
    blocs = [list(b) for b in blocs]
    if len(blocs) < 2:
        raise FewerThanTwoBlocs("bridging needs at least two blocs")
    rates = bloc_rates(reactions, content, blocs, alpha=alpha)
    weights = _bloc_weights([len(b) for b in blocs], weighting)
    return consensus_product(rates, weights)


def divisiveness(reactions: ReactionMatrix, content: int,
                 blocs: Sequence[Iterable[int]],
                 alpha: float = 1.0) -> tuple[float, frozenset[int]]:
    """Bloc approval spread and the blocs the content is characteristic of.

    Content only counts as divisive when the characteristic blocs (approval
    rate >= 0.5) form a strict, non-empty subset of the blocs.
    """
    blocs = [list(b) for b in blocs]
    if len(blocs) < 2:
        raise FewerThanTwoBlocs("divisiveness needs at least two blocs")
    return _spread(bloc_rates(reactions, content, blocs, alpha=alpha))


def _spread(rates: np.ndarray) -> tuple[float, frozenset[int]]:
    """Approval spread across blocs, and the blocs at or above 0.5."""
    return (float(rates.max() - rates.min()),
            frozenset(int(g) for g in np.nonzero(rates >= 0.5)[0]))


def community_score(iota: float, beta: float, delta: float,
                    popularity_only: bool = False) -> float:
    """Combined score: interest times the stronger of bridging/balancing
    (interest alone with `popularity_only`)."""
    if not (math.isfinite(iota) and math.isfinite(beta) and math.isfinite(delta)):
        raise ValueError("scores must be finite")
    if iota < 0 or not (0 <= beta <= 1) or not (0 <= delta <= 1):
        raise ValueError("iota >= 0 and beta, delta in [0, 1] required")
    return iota if popularity_only else iota * max(beta, delta)


def assign_label(beta: float, delta: float, characteristic: frozenset[int],
                 n_blocs: int, label_floor: float) -> str:
    """Bridging wins ties; Divisive additionally requires a strict non-empty
    characteristic subset."""
    if beta >= delta and beta >= label_floor:
        return LABEL_BRIDGING
    if delta > beta and delta >= label_floor and 0 < len(characteristic) < n_blocs:
        return LABEL_DIVISIVE
    return LABEL_NEITHER


# -- matrix-factorization bridging ---------------------------------------------

@dataclass
class MfFit:
    """Fitted rater/item model; beta_raw is the partisanship-removed intercept."""

    beta_raw: dict[int, float]
    mu: float
    rater_bias: dict[int, float]
    item_bias: dict[int, float]
    rater_factor: dict[int, np.ndarray]
    item_factor: dict[int, np.ndarray]


def bridging_mf(reactions: ReactionMatrix, raters: Iterable[int],
                reg: float = 0.05, epochs: int = 400,
                lr: float = 0.05, seed: int = 0,
                contents: Iterable[int] | None = None) -> MfFit:
    """Fit r_ui = mu + b_u + b_i + f_u * f_i on explicit votes (+1 -> 1, -1 -> 0).

    Seeded rank-1 SGD with L2 regularization on the biases and factors;
    exposures without a vote are excluded. beta_raw(item) = clamp(mu + b_item,
    0, 1). The loop runs over plain floats but performs the same IEEE-754
    operations in the same order as an SGD over numpy arrays of shape (n, 1),
    so its results are bit-identical to that form.
    """
    raters = set(raters)
    pool = None if contents is None else set(contents)
    obs: list[tuple[int, int, float]] = []
    items: set[int] = set()
    voters: set[int] = set()
    for (p, m), cell in sorted(reactions.items()):
        if p not in raters or cell.reaction == 0:
            continue
        if pool is not None and m not in pool:
            continue
        obs.append((p, m, 1.0 if cell.reaction > 0 else 0.0))
        items.add(m)
        voters.add(p)
    if len(voters) < 2 or len(items) < 2:
        raise InsufficientData(f"mf fit needs >= 2 raters and >= 2 voted items, "
                               f"got {len(voters)} raters, {len(items)} items")

    rng = derive_rng(seed, "mf")
    r_index = {p: i for i, p in enumerate(sorted(voters))}
    i_index = {m: j for j, m in enumerate(sorted(items))}
    samples = [(r_index[p], i_index[m], y) for p, m, y in obs]
    mu = float(np.mean([y for _, _, y in obs]))
    b_u = [0.0] * len(r_index)
    b_i = [0.0] * len(i_index)
    f_u = rng.normal(0.0, 0.1, size=(len(r_index), 1))[:, 0].tolist()
    f_i = rng.normal(0.0, 0.1, size=(len(i_index), 1))[:, 0].tolist()

    order = np.arange(len(obs))
    for _ in range(epochs):
        rng.shuffle(order)
        for k in order.tolist():
            u, i, y = samples[k]
            fu, fi = f_u[u], f_i[i]
            err = y - (mu + b_u[u] + b_i[i] + fu * fi)
            mu += lr * err
            b_u[u] += lr * (err - reg * b_u[u])
            b_i[i] += lr * (err - reg * b_i[i])
            f_u[u] = fu + lr * (err * fi - reg * fu)
            f_i[i] = fi + lr * (err * fu - reg * fi)

    beta_raw = {m: float(np.clip(mu + b_i[i_index[m]], 0.0, 1.0)) for m in i_index}
    return MfFit(
        beta_raw=beta_raw,
        mu=mu,
        rater_bias={p: b_u[r_index[p]] for p in r_index},
        item_bias={m: b_i[i_index[m]] for m in i_index},
        rater_factor={p: np.array([f_u[r_index[p]]]) for p in r_index},
        item_factor={m: np.array([f_i[i_index[m]]]) for m in i_index},
    )


# -- card assembly --------------------------------------------------------------

@dataclass(slots=True)
class _Profile:
    """All of a card but iota and psi. Citizens in the same communities share
    it, so for citizen scopes it is kept once per membership signature."""

    beta: float
    delta: float
    label: str
    characteristic_blocs: frozenset[int]
    low_confidence: bool
    strength: float                         # max(beta, delta): psi = iota * strength


@dataclass(slots=True)
class _Column:
    """One scope as columns over the contents of `profiles`.

    A content missing from `iota` and `psi` has iota = psi = 0.0. The
    citizen columns `score_round` fills hold only the exposed contents there,
    as the reactions stood at scoring time (the react phase later changes
    the cells in place). `shared` marks maps other columns also hold: the
    membership signature's profiles, and `iota`, which is `psi` in the
    popularity baseline.
    """

    profiles: dict[int, _Profile] = field(default_factory=dict)
    iota: dict[int, float] = field(default_factory=dict)
    psi: dict[int, float] = field(default_factory=dict)
    shared: bool = False

    def put(self, content: int, profile: _Profile, iota: float, psi: float) -> None:
        self.profiles[content] = profile
        self.iota[content] = iota
        self.psi[content] = psi

    def card(self, content: int, scope: Scope) -> Optional[ScoreCard]:
        """The content's card in `scope`, built here and only here; None if
        the column has no such content."""
        p = self.profiles.get(content)
        if p is None:
            return None
        return ScoreCard(content=content, scope=scope, iota=self.iota.get(content, 0.0),
                         beta=p.beta, delta=p.delta, psi=self.psi.get(content, 0.0),
                         characteristic_blocs=p.characteristic_blocs, label=p.label,
                         low_confidence=p.low_confidence)


_NO_SCOPE = _Column()        # read-only stand-in for a scope with no cards


class _Cards(collections.abc.Mapping):
    """Every card of a ScoreSet by (content, scope), each built when read."""

    __slots__ = ("_scores",)

    def __init__(self, scores: "ScoreSet") -> None:
        self._scores = scores

    def __getitem__(self, key: tuple[int, Scope]) -> ScoreCard:
        card = self._scores.get(*key)
        if card is None:
            raise KeyError(key)
        return card

    def __iter__(self) -> Iterator[tuple[int, Scope]]:
        for scope, col in self._scores._columns.items():
            for content in col.profiles:
                yield content, scope

    def __len__(self) -> int:
        return sum(len(col.profiles) for col in self._scores._columns.values())


class ScoreSet:
    """All cards for one scoring pass, with balancing sets per scope.

    Every scope, community or citizen, is kept as one `_Column`: profiles
    (all of a card but iota and psi), iota and psi, each by content id. A
    ScoreCard is built only when `get`, `scope_cards`, `community_cards`,
    `cards` or `csv_lines` asks for one. Ranking, settlement and rewards
    read `column(scope)`, the scope's {content: psi}, where a missing
    content scores 0.
    """

    def __init__(self) -> None:
        self.balancing: dict[tuple[int, Scope], list[int]] = {}
        # Views derived from these scores, kept for the pass (rank keeps its
        # community provenance tags here).
        self.memo: dict = {}
        self._columns: dict[Scope, _Column] = {}

    @property
    def cards(self) -> Mapping[tuple[int, Scope], ScoreCard]:
        """Read-only view of every card by (content, scope)."""
        return _Cards(self)

    def _writable(self, scope: Scope) -> _Column:
        """The scope's column, new if missing and copied if its maps are shared."""
        col = self._columns.get(scope)
        if col is None:
            col = self._columns[scope] = _Column()
        elif col.shared:
            col = self._columns[scope] = _Column(dict(col.profiles), dict(col.iota),
                                                 dict(col.psi))
        return col

    def add(self, card: ScoreCard) -> None:
        """File the card under (content, scope), replacing any card there."""
        profile = _Profile(card.beta, card.delta, card.label, card.characteristic_blocs,
                           card.low_confidence, max(card.beta, card.delta))
        self._writable(card.scope).put(card.content, profile, card.iota, card.psi)

    def _scope(self, scope: Scope) -> _Column:
        return self._columns.get(scope, _NO_SCOPE)

    def scope_cards(self, scope: Scope) -> Mapping[int, ScoreCard]:
        """One scope's cards by content id, built on each call."""
        col = self._scope(scope)
        return {m: col.card(m, scope) for m in col.profiles}

    def get(self, content: int, scope: Scope) -> Optional[ScoreCard]:
        return self._scope(scope).card(content, scope)

    def label(self, content: int, scope: Scope) -> Optional[str]:
        """The card's label, without building the card; None if no card."""
        p = self._scope(scope).profiles.get(content)
        return p.label if p is not None else None

    def column(self, scope: Scope) -> Mapping[int, float]:
        """The scope's psi by content id; a missing content scores 0. Do not
        mutate."""
        return self._scope(scope).psi

    def psi(self, content: int, scope: Scope) -> float:
        return self.column(scope).get(content, 0.0)

    def balancing_for(self, content: int, scope: Scope) -> list[int]:
        return self.balancing.get((content, scope), [])

    def community_cards(self, community: int) -> list[ScoreCard]:
        """The community scope's cards in content order."""
        table = self.scope_cards(("community", community))
        return [table[m] for m in sorted(table)]

    def csv_lines(self) -> Iterator[str]:
        """scorecards.csv lines, header first, cards in (content, scope) order.
        No field needs CSV quoting: ids are ints, scores float reprs, kinds and
        labels plain words, characteristic blocs `;`-joined ids."""
        yield ",".join(SCORECARD_CSV_HEADER) + "\n"
        for content, scope in sorted(self.cards):
            c = self.get(content, scope)
            kind, sid = scope
            blocs = ";".join(map(str, sorted(c.characteristic_blocs)))
            yield (f"{content},{kind},{sid},{c.iota!r},{c.beta!r},{c.delta!r},"
                   f"{c.psi!r},{c.label},{blocs}\n")

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


def _profile(rates: np.ndarray, sizes: Sequence[int], params: ScoringParams,
             beta_override: float | None = None) -> _Profile:
    """Beta, delta and label from per-bloc approval rates (the one labeling path)."""
    weighting = "uniform" if params.backend == "gac_uniform" else "penrose"
    if len(sizes) >= 2:
        beta = consensus_product(rates, _bloc_weights(sizes, weighting)) \
            if beta_override is None else beta_override
        delta, characteristic = _spread(rates)
        low_confidence = False
    else:
        # Degenerate structure: raw smoothed approval over the single bloc.
        beta = float(rates[0]) if len(sizes) else 0.5
        delta, characteristic = 0.0, frozenset()
        low_confidence = True
    label = assign_label(beta, delta, characteristic, max(len(sizes), 1), params.label_floor)
    return _Profile(beta, delta, label, characteristic, low_confidence, max(beta, delta))


def _score_community(col: _Column, mid: int, comm, records: Sequence[tuple[int, Interaction]],
                     params: ScoringParams, decay: _Decay, whole_rate: Callable[[], float],
                     beta_override: float | None = None) -> None:
    """Score one content in one community into the community's column;
    `whole_rate()` gives the smoothed rate over all members, the degenerate
    fallback's single bloc."""
    iota = _interest(records, comm.members, decay)
    blocs = comm.principal_subcommunities
    if len(blocs) >= 2:
        rates = [_smoothed_rate(records, b, params.alpha) for b in blocs]
        sizes = [len(b) for b in blocs]
    elif comm.members:
        rates, sizes = [whole_rate()], [len(comm.members)]
    else:
        rates, sizes = [], []
    p = _profile(np.array(rates, dtype=float), sizes, params, beta_override)
    col.put(mid, p, iota, community_score(iota, p.beta, p.delta, params.popularity_only))


def score_for_community(content: ContentItem, community, reactions: ReactionMatrix,
                        params: ScoringParams, current_round: int,
                        beta_override: float | None = None) -> ScoreCard:
    """Card for one content in one community scope.

    Blocs are the community's principal subcommunities; without at least two
    of them the card falls back to the raw approval rate and is flagged
    low-confidence.
    """
    records = list(reactions.by_content(content.id))
    col = _Column()
    _score_community(
        col, content.id, community, records, params, _Decay(current_round, params.half_life),
        lambda: _smoothed_rate(records, community.members, params.alpha), beta_override)
    return col.card(content.id, ("community", community.id))


def _citizen_column(profiles: dict[int, _Profile], row: Mapping[int, Interaction],
                    decay: _Decay, popularity_only: bool) -> _Column:
    """A citizen scope's column over the contents of `profiles`: iota is the
    decay weight of the citizen's own reaction record (the singleton scope's
    interest), psi = iota * strength, or iota alone under `popularity_only`."""
    iota = {mid: decay.weight(cell) for mid, cell in row.items() if mid in profiles}
    psi = iota if popularity_only else \
        {mid: v * profiles[mid].strength for mid, v in iota.items()}
    return _Column(profiles, iota, psi, shared=True)


def citizen_score(content: ContentItem, citizen: int, fabric, reactions: ReactionMatrix,
                  params: ScoringParams, current_round: int) -> ScoreCard:
    """Card for one content scoped to a citizen.

    The citizen's communities stand in for subcommunities: bridging across
    them means the content is coherent with every facet of the citizen's
    identity, divisive means it splits them. Interest uses the singleton
    scope. With fewer than two memberships the card falls back like a
    degenerate community.
    """
    records = list(reactions.by_content(content.id))
    blocs = [fabric.communities[c].members for c in fabric.member_communities(citizen)]
    rates = np.array([_smoothed_rate(records, b, params.alpha) for b in blocs], dtype=float)
    profiles = {content.id: _profile(rates, [len(b) for b in blocs], params)}
    col = _citizen_column(profiles, reactions.for_citizen(citizen),
                          _Decay(current_round, params.half_life), params.popularity_only)
    return col.card(content.id, ("citizen", citizen))


def balancing_set(scope: Scope, content: int, scores: ScoreSet,
                  catalog: dict[int, ContentItem],
                  topic_overlap_required: bool = False,
                  delta_tol: float = 0.2) -> list[int]:
    """Counterpart contents of similar divisiveness characteristic of disjoint blocs.

    Only divisive-labeled counterparts qualify; an empty result is valid
    (counterparts exist only where the scope's content allows). Sorted by
    psi descending, then content id.
    """
    col = scores._scope(scope)
    base = col.profiles.get(content)
    if base is None or base.label != LABEL_DIVISIVE:
        raise ValueError(f"content {content} is not Divisive in scope {scope}")
    out: list[tuple[float, int]] = []
    for m, p in col.profiles.items():
        if m == content or p.label != LABEL_DIVISIVE:
            continue
        if abs(p.delta - base.delta) > delta_tol:
            continue
        if p.characteristic_blocs & base.characteristic_blocs:
            continue
        if topic_overlap_required:
            if not (catalog[m].topics & catalog[content].topics):
                continue
        out.append((-col.psi.get(m, 0.0), m))
    out.sort()
    return [m for _, m in out]


def score_round(fabric, catalog: dict[int, ContentItem], reactions: ReactionMatrix,
                params: ScoringParams, current_round: int,
                mf_seed: int = 0) -> ScoreSet:
    """Full scoring pass: community columns for every (content, target
    community), citizen columns for every content a citizen could be served,
    and balancing sets for everything labeled Divisive.

    The mf backend fits one factorization per community and falls back to the
    penrose consensus product where its data preconditions fail. Results are
    identical to calling score_for_community / citizen_score pairwise; this
    pass just shares the per-(content, community) vote counting, and fills
    each scope's column directly (see ScoreSet).
    """
    scores = ScoreSet()
    mf_fits: dict[int, MfFit | None] = {}
    if params.backend == "mf":
        for cid in sorted(fabric.communities):
            comm = fabric.communities[cid]
            try:
                mf_fits[cid] = bridging_mf(reactions, comm.members,
                                           reg=params.mf_reg, epochs=params.mf_epochs,
                                           lr=params.mf_lr,
                                           seed=derive_seed(mf_seed, "mf-community", cid))
            except InsufficientData:
                mf_fits[cid] = None

    decay = _Decay(current_round, params.half_life)
    records: dict[int, list[tuple[int, Interaction]]] = {
        mid: list(reactions.by_content(mid)) for mid in catalog}
    whole_rate_cache: dict[tuple[int, int], float] = {}

    def whole_rate(mid: int, cid: int) -> float:
        key = (mid, cid)
        if key not in whole_rate_cache:
            whole_rate_cache[key] = _smoothed_rate(
                records[mid], fabric.communities[cid].members, params.alpha)
        return whole_rate_cache[key]

    for mid in sorted(catalog):
        for cid in sorted(catalog[mid].target_communities):
            comm = fabric.communities.get(cid)
            if comm is None:
                continue
            fit = mf_fits.get(cid)
            override = fit.beta_raw.get(mid) if fit is not None else None
            _score_community(scores._writable(("community", cid)), mid, comm, records[mid],
                             params, decay, lambda: whole_rate(mid, cid), override)

    def balance(scope: Scope, mid: int) -> None:
        scores.balancing[(mid, scope)] = balancing_set(
            scope, mid, scores, catalog,
            topic_overlap_required=params.topic_overlap_required,
            delta_tol=params.delta_tol)

    # Balancing sets are read by key only, so the sweep needs no order.
    for scope, col in scores._columns.items():
        for mid, p in col.profiles.items():
            if p.label == LABEL_DIVISIVE:
                balance(scope, mid)

    by_community: dict[int, list[int]] = {}
    for mid in sorted(catalog):
        for cid in catalog[mid].target_communities:
            by_community.setdefault(cid, []).append(mid)

    # Citizens with identical membership signatures share everything but
    # interest, so their profiles, and which of them are Divisive, are
    # computed once per signature.
    signatures: dict[tuple[int, ...], tuple[dict[int, _Profile], list[int]]] = {}
    for pid in sorted(fabric.citizens):
        comms = tuple(fabric.member_communities(pid))
        shared = signatures.get(comms)
        if shared is None:
            seen: set[int] = set()
            for cid in comms:
                seen.update(by_community.get(cid, ()))
            sizes = [len(fabric.communities[c].members) for c in comms]
            profiles = {mid: _profile(np.array([whole_rate(mid, c) for c in comms]),
                                      sizes, params)
                        for mid in sorted(seen)}
            shared = signatures[comms] = (
                profiles, [m for m, p in profiles.items() if p.label == LABEL_DIVISIVE])
        profiles, divisive = shared
        scope: Scope = ("citizen", pid)
        scores._columns[scope] = _citizen_column(profiles, reactions.for_citizen(pid),
                                                 decay, params.popularity_only)
        for mid in divisive:
            balance(scope, mid)
    return scores
