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

A round's scores are one `ScoreSet`: arrays over the scored contents, with
an iota and a psi row per scope over profile rows (beta, delta, label,
characteristic blocs) that each community holds alone and citizens in the
same communities share. Cards are built from those arrays only when read.
"""

from __future__ import annotations

import collections.abc
import csv
import io
import itertools
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ._rng import derive_rng, derive_seed
from .config import ScoringParams
from .errors import InsufficientData

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
# `score_round` makes one pass per scope.

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


def bloc_rates(reactions: ReactionMatrix, contents: Sequence[int],
               blocs: Sequence[Iterable[int]], alpha: float = 1.0) -> np.ndarray:
    """Smoothed approval rate per (bloc, content), (pos + a) / (pos + neg + 2a),
    from one tally over `contents`; the metrics' polarization reads it. Blocs
    with no votes sit at the 0.5 prior, also in the alpha=0 mode."""
    pos, neg = _Tally(reactions, contents).counts([set(b) for b in blocs])
    return _smoothed_rates(pos, neg, alpha)


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


def _spreads(rates: np.ndarray) -> tuple[np.ndarray, list[frozenset[int]]]:
    """Row by row: approval spread across blocs, and the blocs at or above 0.5."""
    rates = np.ascontiguousarray(rates, dtype=float)
    blocs = range(rates.shape[1])
    return (rates.max(axis=1) - rates.min(axis=1),
            [frozenset(itertools.compress(blocs, row)) for row in (rates >= 0.5).tolist()])


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

# A card's label as `ScoreSet.labels` holds it: its index here, 0 for no card.
LABELS = (None, LABEL_NEITHER, LABEL_BRIDGING, LABEL_DIVISIVE)
_CODE = {label: code for code, label in enumerate(LABELS)}


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
        s = self._scores
        for scope, row in s.rows.items():
            for content in s.contents[s.labels[s.profile_of[row]] != 0].tolist():
                yield content, scope

    def __len__(self) -> int:
        s = self._scores
        return int(np.count_nonzero(s.labels, axis=1)[s.profile_of].sum())


class ScoreSet:
    """All cards for one scoring pass, as arrays over `contents` (the scored
    content ids, ascending; `columns` maps an id to its position), with
    balancing sets per (content, scope).

    `iota` and `psi` hold one row per scope, at `rows[scope]`: communities by
    id, then citizens. The rest of a card is its profile, row
    `profile_of[row]` of `beta`, `delta`, `labels` (a code into `LABELS`,
    0 where the scope has no card for the content), `blocs` (characteristic
    blocs) and `low_confidence`. Each community has a profile row, and
    citizens in the same communities share one. Where a scope has no card,
    iota and psi are 0.0.

    A ScoreCard is built only when `get`, `scope_cards`, `community_cards`,
    `cards` or `csv_lines` asks for one. Ranking, settlement and rewards
    read `column(scope)`, the scope's psi row.
    """

    def __init__(self, contents: Sequence[int] = (), scopes: Sequence[Scope] = (),
                 profile_of: Iterable[int] = (), n_profiles: int = 0) -> None:
        self.contents = np.array(contents, dtype=np.int64)
        self.columns = {m: j for j, m in enumerate(self.contents.tolist())}
        self.rows = {scope: i for i, scope in enumerate(scopes)}
        self.profile_of = np.fromiter(profile_of, np.intp)
        shape = (n_profiles, len(self.contents))
        self.beta, self.delta = np.zeros(shape), np.zeros(shape)
        self.labels = np.zeros(shape, dtype=np.int8)
        self.blocs = np.full(shape, frozenset(), dtype=object)
        self.low_confidence = np.zeros(n_profiles, dtype=bool)
        self.iota = np.zeros((len(self.rows), len(self.contents)))
        self.psi = np.zeros_like(self.iota)
        self.balancing: dict[tuple[int, Scope], list[int]] = {}

    @classmethod
    def of(cls, cards: Iterable[ScoreCard], contents: Iterable[int] = ()) -> "ScoreSet":
        """The set of `cards`, each scope with its own profile row, over the
        cards' contents and `contents`. A later card replaces an earlier one
        under the same (content, scope); a scope's cards share low_confidence."""
        by_key = {(card.content, card.scope): card for card in cards}
        scopes = sorted({scope for _, scope in by_key}, key=lambda s: (s[0] != "community", s[1]))
        scores = cls(sorted({m for m, _ in by_key}.union(contents)), scopes,
                     range(len(scopes)), len(scopes))
        low: dict[Scope, bool] = {}
        for (m, scope), card in by_key.items():
            if low.setdefault(scope, card.low_confidence) != card.low_confidence:
                raise ValueError(f"cards of scope {scope} differ in low_confidence")
            i, j = scores.rows[scope], scores.columns[m]
            scores.iota[i, j], scores.psi[i, j] = card.iota, card.psi
            scores.beta[i, j], scores.delta[i, j] = card.beta, card.delta
            scores.labels[i, j] = _CODE[card.label]
            scores.blocs[i, j] = card.characteristic_blocs
            scores.low_confidence[i] = card.low_confidence
        return scores

    @property
    def cards(self) -> Mapping[tuple[int, Scope], ScoreCard]:
        """Read-only view of every card by (content, scope)."""
        return _Cards(self)

    def label(self, content: int, scope: Scope) -> Optional[str]:
        """The card's label, without building the card; None if no card."""
        row, j = self.rows.get(scope), self.columns.get(content)
        if row is None or j is None:
            return None
        return LABELS[self.labels.item(self.profile_of.item(row), j)]

    def label_codes(self, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """The label codes (into `LABELS`) at `rows` and `columns`, broadcast
        together; 0, no card, where a row or a column is -1."""
        rows, columns = np.broadcast_arrays(rows, columns)
        held = (rows >= 0) & (columns >= 0)
        codes = np.zeros(rows.shape, dtype=np.int8)
        codes[held] = self.labels[self.profile_of[rows[held]], columns[held]]
        return codes

    def get(self, content: int, scope: Scope) -> Optional[ScoreCard]:
        label = self.label(content, scope)
        if label is None:
            return None
        row, j = self.rows[scope], self.columns[content]
        p = self.profile_of[row]
        return ScoreCard(content=content, scope=scope, iota=self.iota.item(row, j),
                         beta=self.beta.item(p, j), delta=self.delta.item(p, j),
                         psi=self.psi.item(row, j), characteristic_blocs=self.blocs[p, j],
                         label=label, low_confidence=bool(self.low_confidence[p]))

    def scope_cards(self, scope: Scope) -> Mapping[int, ScoreCard]:
        """One scope's cards by content id, in content order, built on each call."""
        row = self.rows.get(scope)
        if row is None:
            return {}
        held = self.contents[self.labels[self.profile_of[row]] != 0].tolist()
        return {m: self.get(m, scope) for m in held}

    def column(self, scope: Scope) -> np.ndarray:
        """The scope's psi row over `contents`; zeros for a scope without a
        row. Do not mutate."""
        row = self.rows.get(scope)
        return self.psi[row] if row is not None else np.zeros(len(self.contents))

    def balancing_for(self, content: int, scope: Scope) -> list[int]:
        return self.balancing.get((content, scope), [])

    def community_cards(self, community: int) -> list[ScoreCard]:
        """The community scope's cards in content order."""
        return list(self.scope_cards(("community", community)).values())

    def csv_lines(self) -> Iterator[str]:
        """scorecards.csv lines, header first, cards in (content, scope) order.
        No field needs CSV quoting: ids are ints, scores float reprs
        (`float.__repr__`), kinds and labels plain words, characteristic
        blocs `;`-joined ids. A profile's fields are formatted once for all
        the scopes that share it."""
        yield ",".join(SCORECARD_CSV_HEADER) + "\n"
        order = sorted(self.rows.items())
        where = [f"{kind},{sid}" for (kind, sid), _ in order]
        rows = np.array([row for _, row in order], dtype=np.intp)
        profiles = self.profile_of[rows]
        held = self.labels[profiles] != 0
        r = float.__repr__
        for j, content in enumerate(self.contents.tolist()):
            fields: dict[int, tuple[str, str]] = {}      # profile -> text either side of psi
            ks = np.flatnonzero(held[:, j])
            for k, p, iota, psi in zip(ks.tolist(), profiles[ks].tolist(),
                                       self.iota[rows[ks], j].tolist(),
                                       self.psi[rows[ks], j].tolist()):
                text = fields.get(p)
                if text is None:
                    blocs = ";".join(map(str, sorted(self.blocs[p, j])))
                    text = fields[p] = (f"{r(self.beta.item(p, j))},{r(self.delta.item(p, j))}",
                                        f"{LABELS[self.labels.item(p, j)]},{blocs}\n")
                yield f"{content},{where[k]},{r(iota)},{text[0]},{r(psi)},{text[1]}"

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


def _with_psi(scores: ScoreSet, popularity_only: bool) -> ScoreSet:
    """`scores` with every scope's psi row set from its iota and profile by
    the one psi formula: interest times the stronger of bridging and
    balancing, or interest alone under `popularity_only`."""
    scores.psi = scores.iota if popularity_only else \
        scores.iota * np.maximum(scores.beta, scores.delta)[scores.profile_of]
    return scores


def _profile(scores: ScoreSet, p: int, cols: Sequence[int], rates: np.ndarray,
             sizes: Sequence[int], params: ScoringParams,
             beta_override: Sequence[float | None] | None = None) -> None:
    """Fill profile row `p` of `scores` at content positions `cols` from one
    row of per-bloc approval rates per content (the one labeling path). A
    content's `beta_override`, when not None, replaces its consensus product."""
    rates = np.ascontiguousarray(rates, dtype=float)
    n_rows = rates.shape[0]
    if len(sizes) >= 2:
        weighting = "uniform" if params.backend == "gac_uniform" else "penrose"
        beta = consensus_products(rates, _bloc_weights(sizes, weighting))
        if beta_override is not None:
            beta = np.array([b if o is None else o
                             for b, o in zip(beta.tolist(), beta_override)], dtype=float)
        delta, characteristic = _spreads(rates)
    else:
        # Degenerate structure: raw smoothed approval over the single bloc.
        beta = rates[:, 0] if len(sizes) else np.full(n_rows, 0.5)
        delta, characteristic = np.zeros(n_rows), [frozenset()] * n_rows
    n_blocs = max(len(sizes), 1)
    scores.beta[p, cols], scores.delta[p, cols] = beta, delta
    scores.labels[p, cols] = [_CODE[assign_label(b, d, c, n_blocs, params.label_floor)]
                              for b, d, c in zip(beta.tolist(), delta.tolist(), characteristic)]
    scores.blocs[p, cols] = characteristic
    scores.low_confidence[p] = len(sizes) < 2


def _score_community(scores: ScoreSet, k: int, comm, cols: Sequence[int], tally: _Tally,
                     params: ScoringParams,
                     beta_raw: Mapping[int, float] | None = None) -> np.ndarray:
    """Score the tally's contents at positions `cols` into row and profile
    row `k` of `scores`, the community's, in one pass. Blocs are the
    principal subcommunities; below two, the whole member set is the single
    bloc. `beta_raw` holds fitted betas that replace the consensus product.
    Returns the smoothed rate over all members for every content of the
    tally."""
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
    override = None if beta_raw is None else \
        [beta_raw.get(m) for m in tally.contents[cols].tolist()]
    _profile(scores, k, cols, block, sizes, params, override)
    scores.iota[k, cols] = tally.interest(comm.members)[cols]
    return rates[0]


def _score_signature(scores: ScoreSet, p: int, rates: Mapping[int, np.ndarray],
                     comms: Sequence[int], cols: Sequence[int], fabric,
                     params: ScoringParams) -> None:
    """Profile row `p` of `scores`, at content positions `cols`, for citizens
    in exactly the communities `comms`, whose whole-member rates (per
    content) are `rates`: the communities stand in for blocs."""
    cols = np.asarray(cols, dtype=np.intp)
    block = np.stack([rates[c][cols] for c in comms], axis=1) if comms \
        else np.zeros((len(cols), 0))
    _profile(scores, p, cols, block, [len(fabric.communities[c].members) for c in comms],
             params)


def _citizen_iota(scores: ScoreSet, first: int, citizens: Sequence[int],
                  tally: _Tally) -> None:
    """Set the iota rows from `first` on, one per citizen: the interest weight
    of the citizen's own record (the singleton scope's interest) where it has
    a card, 0.0 elsewhere."""
    if tally.citizens:
        rows = np.arange(first, first + len(citizens))
        at, has = _positions(np.array(tally.citizens, dtype=np.int64), citizens)
        held = has[:, None] & (scores.labels[scores.profile_of[rows]] != 0)
        scores.iota[rows] = np.where(held, tally.weight[at], 0.0)


def balancing_set(scope: Scope, content: int, scores: ScoreSet,
                  catalog: dict[int, ContentItem],
                  topic_overlap_required: bool = False,
                  delta_tol: float = 0.2) -> list[int]:
    """Counterpart contents of similar divisiveness characteristic of disjoint blocs.

    Only divisive-labeled counterparts qualify; an empty result is valid
    (counterparts exist only where the scope's content allows). Sorted by
    psi descending, then content id.
    """
    if scores.label(content, scope) != LABEL_DIVISIVE:
        raise ValueError(f"content {content} is not Divisive in scope {scope}")
    row, j = scores.rows[scope], scores.columns[content]
    p = scores.profile_of[row]
    delta, blocs, psi = scores.delta[p], scores.blocs[p], scores.psi[row]
    near = np.flatnonzero((scores.labels[p] == _CODE[LABEL_DIVISIVE])
                          & (np.abs(delta - delta[j]) <= delta_tol))
    out: list[tuple[float, int]] = []
    for k, m in zip(near.tolist(), scores.contents[near].tolist()):
        if k == j or blocs[k] & blocs[j] or topic_overlap_required \
                and not catalog[m].topics & catalog[content].topics:
            continue
        out.append((-psi.item(k), m))
    out.sort()
    return [m for _, m in out]


def score_round(fabric, catalog: dict[int, ContentItem], reactions: ReactionMatrix,
                params: ScoringParams, current_round: int,
                signatures: Mapping[int, tuple[int, ...]], mf_seed: int = 0) -> ScoreSet:
    """Full scoring pass: community rows for every (content, target
    community), citizen rows for every content a citizen could be served,
    and balancing sets for everything labeled Divisive.

    The mf backend fits on read: only a community with at least two principal
    subcommunities and a targeted content reads a factorization, so only such
    a community is fitted, from its own seed; where the fit's data
    preconditions fail, the penrose consensus product stands. The records
    are tallied once, each community's contents are profiled in one pass,
    and so are each membership signature's (`signatures`, the fabric's
    `signatures()`); every citizen's iota is one gather from the tally, and
    psi one formula over every row (see ScoreSet).
    """
    contents = sorted(catalog)
    tally = _Tally(reactions, contents, current_round, params.half_life)
    targeting: dict[int, list[int]] = {}        # community -> positions in `contents`
    for j, mid in enumerate(contents):
        for cid in catalog[mid].target_communities:
            targeting.setdefault(cid, []).append(j)

    # Citizens with identical membership signatures share everything but
    # interest, so each signature has one profile row, after the communities'.
    communities, citizens = sorted(fabric.communities), sorted(fabric.citizens)
    profiles: dict[tuple[int, ...], int] = {}   # signature -> profile row
    profile_of = list(range(len(communities)))
    for pid in citizens:
        profile_of.append(profiles.setdefault(signatures[pid], len(communities) + len(profiles)))
    scores = ScoreSet(contents, [("community", c) for c in communities]
                      + [("citizen", p) for p in citizens],
                      profile_of, len(communities) + len(profiles))

    whole: dict[int, np.ndarray] = {}           # community -> rate over all members
    for k, cid in enumerate(communities):
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
        whole[cid] = _score_community(scores, k, comm, cols, tally, params, beta_raw)
    for comms, p in profiles.items():
        cols = sorted(set().union(*(targeting.get(c, ()) for c in comms)))
        _score_signature(scores, p, whole, comms, cols, fabric, params)
    _citizen_iota(scores, len(communities), citizens, tally)
    _with_psi(scores, params.popularity_only)

    # Each Divisive card gets its balancing set; they are read by key only,
    # so the sweep needs no order.
    divisive = [scores.contents[labels == _CODE[LABEL_DIVISIVE]].tolist()
                for labels in scores.labels]
    for scope, row in scores.rows.items():
        for mid in divisive[profile_of[row]]:
            scores.balancing[(mid, scope)] = balancing_set(
                scope, mid, scores, catalog,
                topic_overlap_required=params.topic_overlap_required,
                delta_tol=params.delta_tol)
    return scores
