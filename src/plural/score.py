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

import bisect
import collections.abc
import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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
    """A post, targeted at one or more communities."""

    id: int
    creator: int
    topics: set[int] = field(default_factory=set)
    created_round: int = 0
    target_communities: set[int] = field(default_factory=set)
    creator_kind: str = "citizen"          # "citizen" | "advertiser"

    def __post_init__(self) -> None:
        if not self.target_communities:
            raise ValueError("content needs at least one target community")
        if self.creator_kind not in ("citizen", "advertiser"):
            raise ValueError(f"bad creator kind {self.creator_kind!r}")


# One citizen's record of one content, as `ReactionMatrix.get` reads it.
Record = NamedTuple("Record", [("reaction", int), ("round", int)])
_NEVER = np.iinfo(np.int64).min      # the round held where there is no record


def _positions(ids: np.ndarray, wanted) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `wanted` sits in the ascending `ids`, and whether it is there."""
    wanted = np.asarray(wanted, dtype=np.int64)
    pos = np.searchsorted(ids, wanted).clip(max=max(len(ids) - 1, 0))
    return pos, ids[pos] == wanted if len(ids) else np.zeros(wanted.shape, dtype=bool)


class ReactionMatrix:
    """(citizen, content) -> reaction record, as three (contents x citizens)
    arrays over ascending `content_ids` and `citizen_ids`: `seen` (a record
    exists: the citizen was exposed), `sign` (-1, 0 or +1) and `round` (the
    latest round recorded; the int64 minimum where there is no record).
    Ids get a row or column when reserved or recorded.
    """

    def __init__(self, citizens: Iterable[int] = ()) -> None:
        self.citizen_ids = self.content_ids = np.zeros(0, dtype=np.int64)
        self.seen, self.sign, self.round = (np.zeros((0, 0), t) for t in (bool, np.int8, np.int64))
        self.reserve(citizens)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.seen))

    def reserve(self, citizens: Iterable[int] = (), contents: Iterable[int] = ()) -> None:
        """Give each new id an empty column (citizens) or row (contents)."""
        for axis, name, wanted in ((0, "content_ids", contents), (1, "citizen_ids", citizens)):
            ids, wanted = getattr(self, name), np.fromiter(wanted, np.int64)
            new = np.array(sorted(set(wanted[~_positions(ids, wanted)[1]].tolist())), np.int64)
            if new.size:
                at = np.searchsorted(ids, new)
                setattr(self, name, np.insert(ids, at, new))
                for key, empty in (("seen", False), ("sign", 0), ("round", _NEVER)):
                    setattr(self, key, np.insert(getattr(self, key), at, empty, axis=axis))

    def record(self, citizens: Sequence[int], contents: Sequence[int],
               reactions: Sequence[int], round_: int | Sequence[int]) -> None:
        """Record each citizen's exposure to its content in `round_` (one
        round, or one per entry), with its reaction (0: no vote). A record
        keeps its latest round and its last nonzero reaction in entry order."""
        reactions = np.asarray(reactions, dtype=np.int64)
        if ((reactions < -1) | (reactions > 1)).any():
            raise ValueError("reaction must be -1, 0 or +1")
        self.reserve(citizens, contents)
        at = (np.searchsorted(self.content_ids, contents),
              np.searchsorted(self.citizen_ids, citizens))
        self.seen[at] = True
        np.maximum.at(self.round, at, round_)
        vote = np.flatnonzero(reactions != 0)[::-1]        # the last entry first
        _, last = np.unique(at[0][vote] * self.seen.shape[1] + at[1][vote], return_index=True)
        self.sign[at[0][vote[last]], at[1][vote[last]]] = reactions[vote[last]]

    def record_exposure(self, citizen: int, content: int, round_: int) -> None:
        self.record([citizen], [content], [0], round_)

    def record_reaction(self, citizen: int, content: int, reaction: int, round_: int) -> None:
        self.record([citizen], [content], [reaction], round_)

    def get(self, citizen: int, content: int) -> Optional[Record]:
        (i,), (has_i,) = _positions(self.content_ids, [content])
        (j,), (has_j,) = _positions(self.citizen_ids, [citizen])
        if has_i and has_j and self.seen[i, j]:
            return Record(int(self.sign[i, j]), int(self.round[i, j]))
        return None

    # CSV interchange: citizen_id, content_id, round, exposed(0/1), reaction.
    # Every held record is an exposure, so `to_csv` writes exposed as 1.

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(REACTIONS_CSV_HEADER)
        p, m = np.nonzero(self.seen.T)      # citizen, then content order
        w.writerows(zip(self.citizen_ids[p].tolist(), self.content_ids[m].tolist(),
                        self.round[m, p].tolist(), itertools.repeat(1), self.sign[m, p].tolist()))
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ReactionMatrix":
        """Parse `to_csv` output; a malformed row raises ValueError naming its line."""
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is not None:    # None: empty text, no rows
            missing = [c for c in REACTIONS_CSV_HEADER if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"line 1: missing column(s) {', '.join(missing)}")
        rows = []
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
                if not -2 ** 63 <= fields[-1] < 2 ** 63:    # scoring holds them as int64
                    raise ValueError(f"line {line}: {col} is out of range (int64): "
                                     f"{row[col]!r}")
            citizen, content, round_, exposed, reaction = fields
            if exposed not in (0, 1):
                raise ValueError(f"line {line}: exposed must be 0 or 1, got {exposed}")
            if reaction != 0 and not exposed:
                raise ValueError(f"line {line}: reaction without exposure at citizen "
                                 f"{citizen}, content {content}")
            if reaction not in (-1, 0, 1):
                raise ValueError(f"line {line}: reaction must be -1, 0 or +1")
            if exposed:
                rows.append((citizen, content, reaction, round_))
        rm = cls()
        rm.record(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)    # rows in file order
        return rm

    def to_attitudes(self, row_ids: Sequence[int] | None = None,
                     col_ids: Sequence[int] | None = None):
        """Dense signed-reaction matrix for the detection pathway."""
        from .detect import AttitudeMatrix
        rows = self.citizen_ids[self.seen.any(axis=0)] if row_ids is None else row_ids
        cols = self.content_ids[self.seen.any(axis=1)] if col_ids is None else col_ids
        rows, cols = list(map(int, rows)), list(map(int, cols))
        p, p_held = _positions(self.citizen_ids, rows)
        m, m_held = _positions(self.content_ids, cols)
        values = np.zeros((len(rows), len(cols)))
        values[np.ix_(p_held, m_held)] = self.sign[np.ix_(m[m_held], p[p_held])].T
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
# Each formula is written once, as a pass over many contents at a time:
# `score_round` makes one pass per scope, and the per-card functions below
# are one-row calls into the same passes.

def _decay(rounds: np.ndarray, current_round: int, half_life: float) -> np.ndarray:
    """Interest decay 2^(-age/half_life) of records made in `rounds`, with
    age = max(0, current_round - round). Each distinct round's value is
    computed once with that Python expression, not with np.power, whose
    SIMD path may round differently, and gathered."""
    distinct, where = np.unique(rounds, return_inverse=True)
    table = np.array([2.0 ** (-max(0, current_round - r) / half_life)
                      for r in distinct.tolist()])
    return table[where.reshape(rounds.shape)]


class _Tally:
    """Reaction records over a list of contents as dense (citizens x contents)
    arrays: exposure, interest weight, approvals and disapprovals. Rows are
    the citizens with a record on any of the contents, in ascending id, so a
    column accumulated row by row adds in the order the records are sorted;
    a missing record is a zero.

    An exposure's interest weight is 2^(-age/half_life) * (1 + 0.5*|reaction|),
    age counted back from `current_round`; it is computed only when a
    `half_life` is given.
    """

    def __init__(self, reactions: ReactionMatrix, contents: Sequence[int],
                 current_round: int = 0, half_life: Optional[float] = None) -> None:
        self.contents = np.array(contents, dtype=np.int64)
        rows, held = _positions(reactions.content_ids, self.contents)
        cols = np.flatnonzero(reactions.seen[rows[held]].any(axis=0))
        self.citizens = reactions.citizen_ids[cols].tolist()
        cells, shape = np.ix_(rows[held], cols), (len(cols), len(contents))
        self.exposed = np.zeros(shape, dtype=bool)
        votes = np.zeros(shape)
        rounds = np.zeros(shape, dtype=np.int64)
        self.exposed[:, held] = reactions.seen[cells].T
        votes[:, held] = reactions.sign[cells].T
        rounds[:, held] = reactions.round[cells].T
        if half_life is not None:
            self.weight = np.zeros(shape)
            self.weight[self.exposed] = _decay(rounds[self.exposed], current_round, half_life) \
                * (1.0 + 0.5 * np.abs(votes[self.exposed]))
        self._approve = (votes > 0).astype(float)
        self._reject = (votes < 0).astype(float)

    def row(self, citizen: int) -> Optional[int]:
        """The citizen's row; None if it has no record on these contents."""
        i = bisect.bisect_left(self.citizens, citizen)
        return i if i < len(self.citizens) and self.citizens[i] == citizen else None

    def _member(self, group: Collection[int]) -> list[bool]:
        """Which rows are the group's citizens."""
        return [p in group for p in self.citizens]

    def interest(self, members: Collection[int]) -> np.ndarray:
        """Per content: the members' weights added in ascending citizen id,
        divided by the member count; 0.0 for a scope with no members."""
        rows = np.flatnonzero(self._member(members))
        if not rows.size:
            return np.zeros(len(self.contents))
        # accumulate is sequential, row after row: the sum of the records in order
        return np.cumsum(self.weight[rows], axis=0)[-1] / len(members)

    def counts(self, groups: Sequence[Collection[int]]) -> tuple[np.ndarray, np.ndarray]:
        """Approvals and disapprovals per (group, content) among each group's
        citizens. Sums of 0/1 values, so exact in any order."""
        member = np.array([self._member(g) for g in groups], dtype=float)
        member = member.reshape(len(groups), len(self.citizens))
        return member @ self._approve, member @ self._reject


def _smoothed_rates(pos: np.ndarray, neg: np.ndarray, alpha: float) -> np.ndarray:
    """(pos + a) / (pos + neg + 2a) elementwise; 0.5 where the denominator is
    0 (no votes and no smoothing)."""
    denom = pos + neg + 2.0 * alpha
    return np.divide(pos + alpha, denom, out=np.full_like(denom, 0.5), where=denom > 0)


def interest(reactions: ReactionMatrix, content: int, members: Iterable[int],
             current_round: int, half_life: float) -> float:
    """Time-decayed interaction weight per member of the scope.

    Each exposure contributes 2^(-age/half_life) * (1 + 0.5*|reaction|);
    the sum is divided by the scope size, so a scope where everyone just
    reacted scores 1.5.
    """
    if half_life <= 0:
        raise ValueError("half_life must be > 0")
    tally = _Tally(reactions, [content], current_round, half_life)
    return float(tally.interest(set(members))[0])


def bloc_rates(reactions: ReactionMatrix, content: int,
               blocs: Sequence[Iterable[int]], alpha: float = 1.0) -> np.ndarray:
    """Smoothed approval rate per bloc: (pos + a) / (pos + neg + 2a).

    Blocs with no votes sit at the 0.5 prior, also in the alpha=0 mode.
    """
    pos, neg = _Tally(reactions, [content]).counts([set(b) for b in blocs])
    return _smoothed_rates(pos, neg, alpha)[:, 0]


def _bloc_weights(sizes: Sequence[int], weighting: str) -> np.ndarray:
    if weighting == "uniform":
        w = np.ones(len(sizes))
    elif weighting == "penrose":
        w = np.sqrt(np.asarray(sizes, dtype=float))
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return w / w.sum()


def consensus_products(rates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row by row: the weighted geometric mean of a row of bloc rates, exact
    under consensus (a row of equal rates gives that rate).

    Entries with zero weight are ignored: a row's product is 0 only when a
    positively weighted rate is <= 0. Rows are reduced C-contiguous, where
    numpy sums each row as it sums a 1-D array.
    """
    rates = np.ascontiguousarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    out = np.exp(np.sum(weights * np.log(np.where(rates > 0, rates, 1.0)), axis=1))
    out[(rates[:, weights > 0] <= 0.0).any(axis=1)] = 0.0
    same = (rates == rates[:, :1]).all(axis=1)
    out[same] = rates[same, 0]
    return out


def consensus_product(rates: np.ndarray, weights: np.ndarray) -> float:
    """Weighted geometric mean of one content's bloc rates (`consensus_products`)."""
    return float(consensus_products(np.asarray(rates, dtype=float)[None, :], weights)[0])


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


def _spreads(rates: np.ndarray) -> tuple[np.ndarray, list[frozenset[int]]]:
    """Row by row: approval spread across blocs, and the blocs at or above 0.5."""
    rates = np.ascontiguousarray(rates, dtype=float)
    blocs = range(rates.shape[1])
    return (rates.max(axis=1) - rates.min(axis=1),
            [frozenset(itertools.compress(blocs, row)) for row in (rates >= 0.5).tolist()])


def _spread(rates: np.ndarray) -> tuple[float, frozenset[int]]:
    """One content's spread and characteristic blocs (`_spreads`)."""
    delta, characteristic = _spreads(np.asarray(rates, dtype=float)[None, :])
    return float(delta[0]), characteristic[0]


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
    cols = np.flatnonzero(np.isin(reactions.citizen_ids, np.fromiter(raters, np.int64)))
    rows = np.arange(len(reactions.content_ids)) if contents is None \
        else np.flatnonzero(np.isin(reactions.content_ids, np.fromiter(contents, np.int64)))
    votes = reactions.sign[np.ix_(rows, cols)].T       # (raters x contents)
    at = np.nonzero(votes)                              # citizen, then content order
    voters, rater_of = np.unique(at[0], return_inverse=True)
    items, item_of = np.unique(at[1], return_inverse=True)
    if len(voters) < 2 or len(items) < 2:
        raise InsufficientData(f"mf fit needs >= 2 raters and >= 2 voted items, "
                               f"got {len(voters)} raters, {len(items)} items")

    targets = (votes[at] > 0).astype(float)
    samples = list(zip(rater_of.tolist(), item_of.tolist(), targets.tolist()))
    voter_ids = reactions.citizen_ids[cols[voters]].tolist()
    item_ids = reactions.content_ids[rows[items]].tolist()
    rng = derive_rng(seed, "mf")
    mu = float(np.mean(targets))
    b_u = [0.0] * len(voter_ids)
    b_i = [0.0] * len(item_ids)
    f_u = rng.normal(0.0, 0.1, size=(len(voter_ids), 1))[:, 0].tolist()
    f_i = rng.normal(0.0, 0.1, size=(len(item_ids), 1))[:, 0].tolist()

    order = np.arange(len(samples))
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

    return MfFit(
        beta_raw={m: float(np.clip(mu + b_i[j], 0.0, 1.0)) for j, m in enumerate(item_ids)},
        mu=mu,
        rater_bias=dict(zip(voter_ids, b_u)),
        item_bias=dict(zip(item_ids, b_i)),
        rater_factor={p: np.array([f]) for p, f in zip(voter_ids, f_u)},
        item_factor={m: np.array([f]) for m, f in zip(item_ids, f_i)},
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
    as the reactions stood at scoring time. `shared` marks maps other columns
    also hold: the membership signature's profiles, and `iota`, which is
    `psi` in the popularity baseline.
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
        No field needs CSV quoting: ids are ints, scores float reprs
        (`float.__repr__`, so a numpy scalar prints as a plain number), kinds
        and labels plain words, characteristic blocs `;`-joined ids. Lines
        are read off the columns; a profile's fields are formatted once for
        all the scopes that share it."""
        yield ",".join(SCORECARD_CSV_HEADER) + "\n"
        columns = {scope: (col, f"{scope[0]},{scope[1]}") for scope, col in self._columns.items()}
        fields: dict[int, tuple[str, str]] = {}     # id(profile) -> text either side of psi
        r = float.__repr__
        for content, scope in sorted((m, scope) for scope, (col, _) in columns.items()
                                     for m in col.profiles):
            col, where = columns[scope]
            p = col.profiles[content]
            text = fields.get(id(p))
            if text is None:
                blocs = ";".join(map(str, sorted(p.characteristic_blocs)))
                text = fields[id(p)] = (f"{r(p.beta)},{r(p.delta)}", f"{p.label},{blocs}\n")
            yield (f"{content},{where},{r(col.iota.get(content, 0.0))},{text[0]},"
                   f"{r(col.psi.get(content, 0.0))},{text[1]}")

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


def _profiles(rates: np.ndarray, sizes: Sequence[int], params: ScoringParams,
              beta_override: Sequence[float | None] | None = None) -> list[_Profile]:
    """Beta, delta and label for each row of per-bloc approval rates, one
    row per content (the one labeling path). A row's `beta_override`, when
    not None, replaces its consensus product."""
    rates = np.ascontiguousarray(rates, dtype=float)
    n_rows = rates.shape[0]
    if len(sizes) >= 2:
        weighting = "uniform" if params.backend == "gac_uniform" else "penrose"
        beta = consensus_products(rates, _bloc_weights(sizes, weighting))
        if beta_override is not None:
            beta = np.array([b if o is None else o
                             for b, o in zip(beta.tolist(), beta_override)], dtype=float)
        delta, characteristic = _spreads(rates)
        low_confidence = False
    else:
        # Degenerate structure: raw smoothed approval over the single bloc.
        beta = rates[:, 0] if len(sizes) else np.full(n_rows, 0.5)
        delta, characteristic = np.zeros(n_rows), [frozenset()] * n_rows
        low_confidence = True
    n_blocs = max(len(sizes), 1)
    return [_Profile(b, d, assign_label(b, d, c, n_blocs, params.label_floor), c,
                     low_confidence, max(b, d))
            for b, d, c in zip(beta.tolist(), delta.tolist(), characteristic)]


def _score_community(col: _Column, comm, cols: Sequence[int], tally: _Tally,
                     params: ScoringParams,
                     beta_raw: Mapping[int, float] | None = None) -> np.ndarray:
    """Score the tally's contents at positions `cols` into the community's
    column, in one pass. Blocs are the principal subcommunities; below two,
    the whole member set is the single bloc. `beta_raw` holds fitted betas
    that replace the consensus product. Returns the smoothed rate over all
    members for every content of the tally."""
    blocs = comm.principal_subcommunities
    groups = [comm.members] + (list(blocs) if len(blocs) >= 2 else [])
    rates = _smoothed_rates(*tally.counts(groups), params.alpha)
    if not cols:
        return rates[0]
    if len(blocs) >= 2:
        block, sizes = rates[1:, cols].T, [len(b) for b in blocs]
    elif comm.members:
        block, sizes = rates[:1, cols].T, [len(comm.members)]
    else:
        block, sizes = np.zeros((len(cols), 0)), []
    contents = tally.contents[cols].tolist()
    override = None if beta_raw is None else [beta_raw.get(m) for m in contents]
    iota = tally.interest(comm.members)[cols].tolist()
    for m, p, v in zip(contents, _profiles(block, sizes, params, override), iota):
        col.put(m, p, v, community_score(v, p.beta, p.delta, params.popularity_only))
    return rates[0]


def score_for_community(content: ContentItem, community, reactions: ReactionMatrix,
                        params: ScoringParams, current_round: int,
                        beta_override: float | None = None) -> ScoreCard:
    """Card for one content in one community scope.

    Blocs are the community's principal subcommunities; without at least two
    of them the card falls back to the raw approval rate and is flagged
    low-confidence.
    """
    tally = _Tally(reactions, [content.id], current_round, params.half_life)
    col = _Column()
    _score_community(col, community, [0], tally, params,
                     None if beta_override is None else {content.id: beta_override})
    return col.card(content.id, ("community", community.id))


@dataclass(slots=True)
class _Signature:
    """What citizens in the same communities share: the profiles of the
    contents they could be served, at tally positions `cols`, with each
    profile's strength, and which of the contents are Divisive."""

    profiles: dict[int, _Profile]
    cols: np.ndarray
    strength: np.ndarray
    divisive: list[int]


def _signature(rates: Mapping[int, np.ndarray], comms: Sequence[int], cols: Sequence[int],
               tally: _Tally, fabric, params: ScoringParams) -> _Signature:
    """Profiles of the tally's contents at positions `cols` for citizens in
    exactly the communities `comms`, whose whole-member rates (per tally
    content) are `rates`: the communities stand in for blocs."""
    cols = np.asarray(cols, dtype=np.intp)
    block = np.stack([rates[c][cols] for c in comms], axis=1) if comms \
        else np.zeros((len(cols), 0))
    sizes = [len(fabric.communities[c].members) for c in comms]
    profiles = dict(zip(tally.contents[cols].tolist(), _profiles(block, sizes, params)))
    return _Signature(profiles, cols, np.array([p.strength for p in profiles.values()]),
                      [m for m, p in profiles.items() if p.label == LABEL_DIVISIVE])


def _citizen_column(sig: _Signature, tally: _Tally, citizen: int,
                    popularity_only: bool) -> _Column:
    """A citizen scope's column over the signature's contents: iota is the
    interest weight of the citizen's own record (the singleton scope's
    interest), kept for the contents it was exposed to; psi = iota *
    strength, or iota alone under `popularity_only`."""
    i = tally.row(citizen)
    if i is None:
        return _Column(sig.profiles, {}, {}, shared=True)
    seen = tally.exposed[i, sig.cols]
    hit = sig.cols[seen]
    contents, weight = tally.contents[hit].tolist(), tally.weight[i, hit]
    iota = dict(zip(contents, weight.tolist()))
    psi = iota if popularity_only else \
        dict(zip(contents, (weight * sig.strength[seen]).tolist()))
    return _Column(sig.profiles, iota, psi, shared=True)


def citizen_score(content: ContentItem, citizen: int, fabric, reactions: ReactionMatrix,
                  params: ScoringParams, current_round: int) -> ScoreCard:
    """Card for one content scoped to a citizen.

    The citizen's communities stand in for subcommunities: bridging across
    them means the content is coherent with every facet of the citizen's
    identity, divisive means it splits them. Interest uses the singleton
    scope. With fewer than two memberships the card falls back like a
    degenerate community.
    """
    comms = fabric.member_communities(citizen)
    tally = _Tally(reactions, [content.id], current_round, params.half_life)
    pos, neg = tally.counts([fabric.communities[c].members for c in comms])
    rates = dict(zip(comms, _smoothed_rates(pos, neg, params.alpha)))
    sig = _signature(rates, comms, [0], tally, fabric, params)
    col = _citizen_column(sig, tally, citizen, params.popularity_only)
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

    The mf backend fits on read: only a community with at least two principal
    subcommunities and a targeted content reads a factorization, so only such
    a community is fitted, from its own seed; where the fit's data
    preconditions fail, the penrose consensus product stands. Results are
    identical to calling score_for_community / citizen_score pairwise: those
    are one-content runs of the same passes. Here the records are tallied
    once, each community's contents are profiled in one pass, and so are
    each membership signature's; every scope's column is filled directly
    (see ScoreSet).
    """
    scores = ScoreSet()
    contents = sorted(catalog)
    tally = _Tally(reactions, contents, current_round, params.half_life)
    targeting: dict[int, list[int]] = {}        # community -> positions in `contents`
    for j, mid in enumerate(contents):
        for cid in catalog[mid].target_communities:
            targeting.setdefault(cid, []).append(j)

    whole: dict[int, np.ndarray] = {}           # community -> rate over all members
    for cid in sorted(fabric.communities):
        comm = fabric.communities[cid]
        cols = targeting.get(cid, [])
        beta_raw = None
        if params.backend == "mf" and cols and len(comm.principal_subcommunities) >= 2:
            try:
                beta_raw = bridging_mf(reactions, comm.members, reg=params.mf_reg,
                                       epochs=params.mf_epochs, lr=params.mf_lr,
                                       seed=derive_seed(mf_seed, "mf-community", cid)).beta_raw
            except InsufficientData:
                pass
        whole[cid] = _score_community(
            scores._writable(("community", cid)) if cols else _Column(),
            comm, cols, tally, params, beta_raw)

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

    # Citizens with identical membership signatures share everything but
    # interest, so their profiles, and which of them are Divisive, are
    # computed once per signature.
    signatures: dict[tuple[int, ...], _Signature] = {}
    for pid in sorted(fabric.citizens):
        comms = tuple(fabric.member_communities(pid))
        sig = signatures.get(comms)
        if sig is None:
            cols = sorted(set().union(*(targeting.get(c, ()) for c in comms)))
            sig = signatures[comms] = _signature(whole, comms, cols, tally, fabric, params)
        scope: Scope = ("citizen", pid)
        scores._columns[scope] = _citizen_column(sig, tally, pid, params.popularity_only)
        for mid in sig.divisive:
            balance(scope, mid)
    return scores
