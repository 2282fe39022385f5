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


@dataclass
class Interaction:
    exposed: bool
    reaction: int      # -1, 0, +1
    round: int


class ReactionMatrix:
    """Sparse (citizen, content) -> exposure/reaction record.

    A nonzero reaction implies exposure. Re-recording refreshes the round
    (latest interaction wins).
    """

    def __init__(self) -> None:
        self._cells: dict[tuple[int, int], Interaction] = {}
        self._by_content: dict[int, set[int]] = {}
        self._by_citizen: dict[int, dict[int, Interaction]] = {}

    def __len__(self) -> int:
        return len(self._cells)

    def record_exposure(self, citizen: int, content: int, round_: int) -> None:
        cell = self._cells.get((citizen, content))
        if cell is None:
            cell = Interaction(True, 0, round_)
            self._cells[(citizen, content)] = cell
            self._by_content.setdefault(content, set()).add(citizen)
            self._by_citizen.setdefault(citizen, {})[content] = cell
        else:
            cell.exposed = True
            cell.round = max(cell.round, round_)

    def record_reaction(self, citizen: int, content: int, reaction: int, round_: int) -> None:
        if reaction not in (-1, 0, 1):
            raise ValueError("reaction must be -1, 0 or +1")
        self.record_exposure(citizen, content, round_)
        cell = self._cells[(citizen, content)]
        if reaction != 0:
            cell.reaction = reaction
            cell.round = max(cell.round, round_)

    def get(self, citizen: int, content: int) -> Optional[Interaction]:
        return self._cells.get((citizen, content))

    def citizens_for(self, content: int) -> set[int]:
        return self._by_content.get(content, set())

    def for_citizen(self, citizen: int) -> dict[int, Interaction]:
        """Live view of the citizen's row; do not mutate."""
        return self._by_citizen.get(citizen, {})

    def by_content(self, content: int) -> Iterator[tuple[int, Interaction]]:
        for citizen in sorted(self._by_content.get(content, ())):
            yield citizen, self._cells[(citizen, content)]

    def contents(self) -> list[int]:
        return sorted(self._by_content)

    def items(self) -> Iterator[tuple[tuple[int, int], Interaction]]:
        yield from self._cells.items()

    # CSV interchange: citizen_id, content_id, round, exposed(0/1), reaction

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(REACTIONS_CSV_HEADER)
        for (citizen, content) in sorted(self._cells):
            cell = self._cells[(citizen, content)]
            w.writerow([citizen, content, cell.round, int(cell.exposed), cell.reaction])
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
        rows = sorted({p for p, _ in self._cells}) if row_ids is None else list(row_ids)
        cols = self.contents() if col_ids is None else list(col_ids)
        values = np.zeros((len(rows), len(cols)))
        ri = {r: i for i, r in enumerate(rows)}
        ci = {c: j for j, c in enumerate(cols)}
        for (p, m), cell in self._cells.items():
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
        if cell.exposed and p in members:
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


def _psi(iota: float, beta: float, delta: float, popularity_only: bool) -> float:
    """psi = iota * max(beta, delta), or iota alone in the popularity baseline;
    unchecked, for callers whose inputs are in range by construction."""
    return iota if popularity_only else iota * max(beta, delta)


def community_score(iota: float, beta: float, delta: float,
                    popularity_only: bool = False) -> float:
    """Combined score: interest times the stronger of bridging/balancing
    (interest alone with `popularity_only`)."""
    if not (math.isfinite(iota) and math.isfinite(beta) and math.isfinite(delta)):
        raise ValueError("scores must be finite")
    if iota < 0 or not (0 <= beta <= 1) or not (0 <= delta <= 1):
        raise ValueError("iota >= 0 and beta, delta in [0, 1] required")
    return _psi(iota, beta, delta, popularity_only)


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
    """All of a citizen-scope card but iota and psi. Citizens in the same
    communities share it, so it is kept once per membership signature."""

    beta: float
    delta: float
    label: str
    characteristic_blocs: frozenset[int]
    low_confidence: bool
    strength: float                         # max(beta, delta): psi = iota * strength


@dataclass(slots=True)
class _CitizenRow:
    """One citizen scope as columns over the contents of `profiles`.

    `iota` and `psi` hold the exposed contents as the reactions stood at
    scoring time (the react phase later changes the cells in place); every
    other content of the scope has iota = psi = 0.0.
    """

    profiles: Mapping[int, _Profile]        # shared with the membership signature
    iota: dict[int, float]
    psi: dict[int, float]

    def card(self, content: int, citizen: int) -> Optional[ScoreCard]:
        p = self.profiles.get(content)
        if p is None:
            return None
        return ScoreCard(content=content, scope=("citizen", citizen),
                         iota=self.iota.get(content, 0.0), beta=p.beta, delta=p.delta,
                         psi=self.psi.get(content, 0.0),
                         characteristic_blocs=p.characteristic_blocs, label=p.label,
                         low_confidence=p.low_confidence)


class _Cards(collections.abc.Mapping):
    """Every card of a ScoreSet by (content, scope); citizen cards are built
    when read."""

    __slots__ = ("_scores",)

    def __init__(self, scores: "ScoreSet") -> None:
        self._scores = scores

    def __getitem__(self, key: tuple[int, Scope]) -> ScoreCard:
        card = self._scores.get(*key)
        if card is None:
            raise KeyError(key)
        return card

    def __iter__(self) -> Iterator[tuple[int, Scope]]:
        for scope, table in self._scores._by_scope.items():
            for content in table:
                yield content, scope
        for citizen, row in self._scores._rows.items():
            scope = ("citizen", citizen)
            for content in row.profiles:
                yield content, scope

    def __len__(self) -> int:
        return sum(map(len, self._scores._by_scope.values())) + \
            sum(len(row.profiles) for row in self._scores._rows.values())


class ScoreSet:
    """All cards for one scoring pass, with balancing sets per scope.

    Community-scope cards, and any card given to `add`, are kept as
    ScoreCards indexed by scope as {content: card}. The citizen scopes that
    `score_round` fills are kept as columns (`_CitizenRow`): the profiles of
    the citizen's membership signature, shared, and the citizen's own iota
    and psi. A citizen ScoreCard is built only when `get`, `scope_cards`,
    `cards` or `csv_lines` asks for one. Ranking and settlement read
    `column(scope)`, the scope's {content: psi}, where a missing content
    scores 0.
    """

    def __init__(self) -> None:
        self.balancing: dict[tuple[int, Scope], list[int]] = {}
        # Views derived from these scores, kept for the pass (rank keeps its
        # community provenance tags here).
        self.memo: dict = {}
        self._by_scope: dict[Scope, dict[int, ScoreCard]] = {}
        self._rows: dict[int, _CitizenRow] = {}
        self._columns: dict[Scope, dict[int, float]] = {}

    @property
    def cards(self) -> Mapping[tuple[int, Scope], ScoreCard]:
        """Read-only view of every card by (content, scope)."""
        return _Cards(self)

    def add(self, card: ScoreCard) -> None:
        self._file(self._scope_table(card.scope), card)

    def _scope_table(self, scope: Scope) -> dict[int, ScoreCard]:
        """The scope's card table; a citizen row becomes cards first."""
        table = self._by_scope.get(scope)
        if table is None:
            table = self._by_scope[scope] = {}
            row = self._row(scope)
            if row is not None:
                del self._rows[scope[1]]
                for m in row.profiles:
                    table[m] = row.card(m, scope[1])
        return table

    def _file(self, table: dict[int, ScoreCard], card: ScoreCard) -> None:
        """The one write path; `table` must be `_scope_table(card.scope)`."""
        table[card.content] = card
        self._columns.pop(card.scope, None)

    def _row(self, scope: Scope) -> Optional[_CitizenRow]:
        return self._rows.get(scope[1]) if scope[0] == "citizen" else None

    def _profiles(self, scope: Scope) -> Mapping[int, ScoreCard | _Profile]:
        """The scope's cards, or its citizen row's profiles: both carry the
        label, delta and characteristic blocs."""
        table = self._by_scope.get(scope)
        if table is not None:
            return table
        row = self._row(scope)
        return row.profiles if row is not None else {}

    def scope_cards(self, scope: Scope) -> Mapping[int, ScoreCard]:
        """One scope's cards by content id; do not mutate. A citizen row's
        cards are built on each call."""
        table = self._by_scope.get(scope)
        if table is not None:
            return table
        row = self._row(scope)
        return {} if row is None else {m: row.card(m, scope[1]) for m in row.profiles}

    def get(self, content: int, scope: Scope) -> Optional[ScoreCard]:
        table = self._by_scope.get(scope)
        if table is not None:
            return table.get(content)
        row = self._row(scope)
        return row.card(content, scope[1]) if row is not None else None

    def label(self, content: int, scope: Scope) -> Optional[str]:
        """The card's label, without building a citizen card; None if no card."""
        record = self._profiles(scope).get(content)
        return record.label if record is not None else None

    def column(self, scope: Scope) -> Mapping[int, float]:
        """The scope's psi by content id; a missing content scores 0. Do not
        mutate."""
        row = self._row(scope)
        if row is not None:
            return row.psi
        col = self._columns.get(scope)
        if col is None:
            table = self._by_scope.get(scope, {})
            col = self._columns[scope] = {m: card.psi for m, card in table.items()}
        return col

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


def _card_from_rates(content: int, scope: Scope, iota: float, rates: np.ndarray,
                     sizes: Sequence[int], params: ScoringParams,
                     beta_override: float | None = None) -> ScoreCard:
    """Assemble a card from per-bloc approval rates."""
    p = _profile(rates, sizes, params, beta_override)
    psi = community_score(iota, p.beta, p.delta, params.popularity_only)
    return ScoreCard(content=content, scope=scope, iota=iota, beta=p.beta, delta=p.delta,
                     psi=psi, characteristic_blocs=p.characteristic_blocs, label=p.label,
                     low_confidence=p.low_confidence)


def _community_card(mid: int, comm, records: Sequence[tuple[int, Interaction]],
                    params: ScoringParams, decay: _Decay,
                    whole_rate: Callable[[], float],
                    beta_override: float | None = None) -> ScoreCard:
    """Card for one content in one community; `whole_rate()` gives the
    smoothed rate over all members, the degenerate fallback's single bloc."""
    iota = _interest(records, comm.members, decay)
    blocs = comm.principal_subcommunities
    if len(blocs) >= 2:
        rates = [_smoothed_rate(records, b, params.alpha) for b in blocs]
        sizes = [len(b) for b in blocs]
    elif comm.members:
        rates, sizes = [whole_rate()], [len(comm.members)]
    else:
        rates, sizes = [], []
    return _card_from_rates(mid, ("community", comm.id), iota, np.array(rates, dtype=float),
                            sizes, params, beta_override)


def score_for_community(content: ContentItem, community, reactions: ReactionMatrix,
                        params: ScoringParams, current_round: int,
                        beta_override: float | None = None) -> ScoreCard:
    """Card for one content in one community scope.

    Blocs are the community's principal subcommunities; without at least two
    of them the card falls back to the raw approval rate and is flagged
    low-confidence.
    """
    records = list(reactions.by_content(content.id))
    return _community_card(
        content.id, community, records, params, _Decay(current_round, params.half_life),
        lambda: _smoothed_rate(records, community.members, params.alpha), beta_override)


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
    iota = _interest(records, {citizen}, _Decay(current_round, params.half_life))
    blocs = [fabric.communities[c].members for c in fabric.member_communities(citizen)]
    rates = np.array([_smoothed_rate(records, b, params.alpha) for b in blocs], dtype=float)
    return _card_from_rates(content.id, ("citizen", citizen), iota, rates,
                            [len(b) for b in blocs], params)


def balancing_set(scope: Scope, content: int, scores: ScoreSet,
                  catalog: dict[int, ContentItem],
                  topic_overlap_required: bool = False,
                  delta_tol: float = 0.2) -> list[int]:
    """Counterpart contents of similar divisiveness characteristic of disjoint blocs.

    Only divisive-labeled counterparts qualify; an empty result is valid
    (counterparts exist only where the scope's content allows). Sorted by
    psi descending, then content id.
    """
    table = scores._profiles(scope)
    base = table.get(content)
    if base is None or base.label != LABEL_DIVISIVE:
        raise ValueError(f"content {content} is not Divisive in scope {scope}")
    psi = scores.column(scope)
    out: list[tuple[float, int]] = []
    for m, card in table.items():
        if m == content or card.label != LABEL_DIVISIVE:
            continue
        if abs(card.delta - base.delta) > delta_tol:
            continue
        if card.characteristic_blocs & base.characteristic_blocs:
            continue
        if topic_overlap_required:
            if not (catalog[m].topics & catalog[content].topics):
                continue
        out.append((-psi.get(m, 0.0), m))
    out.sort()
    return [m for _, m in out]


def score_round(fabric, catalog: dict[int, ContentItem], reactions: ReactionMatrix,
                params: ScoringParams, current_round: int,
                mf_seed: int = 0) -> ScoreSet:
    """Full scoring pass: community cards for every (content, target community),
    citizen cards for every content a citizen could be served, and balancing
    sets for everything labeled Divisive.

    The mf backend fits one factorization per community and falls back to the
    penrose consensus product where its data preconditions fail. Results are
    identical to calling score_for_community / citizen_score pairwise; this
    pass just shares the per-(content, community) vote counting, and keeps
    citizen scopes as columns (see ScoreSet).
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
            scores.add(_community_card(mid, comm, records[mid], params, decay,
                                       lambda: whole_rate(mid, cid), override))

    def balance(scope: Scope, mid: int) -> None:
        scores.balancing[(mid, scope)] = balancing_set(
            scope, mid, scores, catalog,
            topic_overlap_required=params.topic_overlap_required,
            delta_tol=params.delta_tol)

    # Balancing sets are read by key only, so the sweep needs no order.
    for scope, table in scores._by_scope.items():
        for mid, card in table.items():
            if card.label == LABEL_DIVISIVE:
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
        iota: dict[int, float] = {}
        for mid, cell in reactions.for_citizen(pid).items():
            if cell.exposed and mid in profiles:
                iota[mid] = decay.weight(cell)
        psi = iota if params.popularity_only else \
            {mid: v * profiles[mid].strength for mid, v in iota.items()}
        scores._rows[pid] = _CitizenRow(profiles, iota, psi)
        scope: Scope = ("citizen", pid)
        for mid in divisive:
            balance(scope, mid)
    return scores
