"""The social fabric: a hypergraph of citizens and overlapping communities.

Citizens are nodes, communities are hyperedges, and each membership edge
carries two raw positive weights: *standing* (the member's reputation inside
the community, normalized across the community's members) and *devotion*
(how much the citizen cares about the community, normalized across the
citizen's memberships). Raw weights are stored and normalization happens on
read, so any sequence of mutations keeps both simplexes exact.

A citizen may belong to several communities; shared attitudes inside a
community are carried by its principal subcommunities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._sum import left_sum
from .errors import AlreadyMember, InsufficientStanding, NotFound, Overflow

# Raw standing may never drop below this, keeping every normalized standing
# strictly inside (0, 1).
STANDING_FLOOR = 1e-6


def _id(value, what: str) -> int:
    """`value` when it is an integer id (a bool is not); ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _flag(value, what: str) -> bool:
    """`value` when it is a JSON boolean; ValueError otherwise."""
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _number(value, what: str):
    """`value` when it is a number a float can hold (a bool is not);
    ValueError otherwise. Ranges, finiteness included, are checked where
    the value is stored."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{what} is past the float range") from None
    return value


@dataclass
class MembershipEdge:
    """One citizen-community incidence, stored as raw weights."""

    raw_standing: float
    raw_devotion: float
    opted_in: bool = True

    def __post_init__(self) -> None:
        # the comparisons also reject NaN
        if not (0 < self.raw_standing < math.inf and 0 < self.raw_devotion < math.inf):
            raise ValueError(f"raw weights must be > 0 and finite, got raw_standing "
                             f"{self.raw_standing!r}, raw_devotion {self.raw_devotion!r}")


@dataclass
class Citizen:
    id: int
    memberships: dict[int, MembershipEdge] = field(default_factory=dict)
    lambda_: float = 0.0
    subscriber: bool = False
    accepts_personal_ads: bool = False


@dataclass
class Community:
    id: int
    members: set[int] = field(default_factory=set)
    lambda_: float = 0.0
    principal_subcommunities: list[set[int]] = field(default_factory=list)
    admin_registered: bool = False

    def bloc_problem(self) -> Optional[str]:
        """Say how the stored blocs break their invariant, or None if they hold.

        An empty list means no blocs are stored; otherwise there are 2-7
        disjoint, non-empty blocs, each a subset of the members.
        """
        blocs = self.principal_subcommunities
        if not blocs:
            return None
        if not 2 <= len(blocs) <= 7:
            return f"community {self.id} has {len(blocs)} principal subcommunities, need 2-7"
        for i, g in enumerate(blocs):
            if not g:
                return f"community {self.id} has an empty principal subcommunity"
            if not g <= self.members:
                return (f"community {self.id} has a principal subcommunity naming "
                        f"non-members {sorted(g - self.members)}")
            shared = g & set().union(*blocs[:i])
            if shared:
                return (f"community {self.id} has principal subcommunities sharing "
                        f"members {sorted(shared)}")
        return None


class SocialFabric:
    """Mutable hypergraph with simplex-normalized standing and devotion.

    Single-writer: concurrent readers may share a fabric only while no
    mutation is in flight.
    """

    def __init__(self) -> None:
        self.citizens: dict[int, Citizen] = {}
        self.communities: dict[int, Community] = {}

    # -- construction plumbing ------------------------------------------------

    def add_citizen(self, lambda_: float = 0.0, subscriber: bool = False,
                    accepts_personal_ads: bool = False, citizen_id: int | None = None) -> int:
        if not 0 <= lambda_ < math.inf:     # also rejects NaN
            raise ValueError(f"lambda must be >= 0 and finite, got {lambda_!r}")
        cid = len(self.citizens) if citizen_id is None else citizen_id
        if cid in self.citizens:
            raise ValueError(f"citizen id {cid} already exists")
        self.citizens[cid] = Citizen(id=cid, lambda_=lambda_, subscriber=subscriber,
                                     accepts_personal_ads=accepts_personal_ads)
        return cid

    def add_community(self, lambda_: float = 0.0, admin_registered: bool = False,
                      community_id: int | None = None) -> int:
        if not 0 <= lambda_ < math.inf:     # also rejects NaN
            raise ValueError(f"lambda must be >= 0 and finite, got {lambda_!r}")
        cid = len(self.communities) if community_id is None else community_id
        if cid in self.communities:
            raise ValueError(f"community id {cid} already exists")
        self.communities[cid] = Community(id=cid, lambda_=lambda_,
                                          admin_registered=admin_registered)
        return cid

    def _citizen(self, citizen: int) -> Citizen:
        try:
            return self.citizens[citizen]
        except KeyError:
            raise NotFound(f"unknown citizen {citizen}") from None

    def _community(self, community: int) -> Community:
        try:
            return self.communities[community]
        except KeyError:
            raise NotFound(f"unknown community {community}") from None

    # -- membership mutations -------------------------------------------------

    def add_membership(self, citizen: int, community: int,
                       raw_standing: float, raw_devotion: float,
                       opted_in: bool = True) -> None:
        """Create the edge; both simplexes renormalize implicitly on read."""
        edge = MembershipEdge(raw_standing, raw_devotion, opted_in)
        p = self._citizen(citizen)
        c = self._community(community)
        if community in p.memberships:
            raise AlreadyMember(f"citizen {citizen} already in community {community}")
        p.memberships[community] = edge
        c.members.add(citizen)

    def update_devotion(self, citizen: int, community: int, new_raw: float) -> None:
        """Set the raw devotion on an existing edge; siblings keep their order."""
        if not 0 < new_raw < math.inf:     # also rejects NaN
            raise ValueError(f"raw devotion must be > 0 and finite, got {new_raw!r}")
        p = self._citizen(citizen)
        if community not in p.memberships:
            raise NotFound(f"citizen {citizen} has no membership in {community}")
        p.memberships[community].raw_devotion = new_raw

    def update_standing(self, citizen: int, community: int, delta_raw: float) -> None:
        """Add `delta_raw` to raw standing; spends may not cross the floor."""
        p = self._citizen(citizen)
        if community not in p.memberships:
            raise NotFound(f"citizen {citizen} has no membership in {community}")
        edge = p.memberships[community]
        new_raw = edge.raw_standing + delta_raw
        if not -math.inf < delta_raw < math.inf:   # also rejects NaN
            raise ValueError(f"standing delta must be finite, got {delta_raw!r}")
        if new_raw == math.inf:
            raise Overflow(f"raw standing of citizen {citizen} in community {community} "
                           f"overflowed: {edge.raw_standing!r} + {delta_raw!r} is not finite")
        if new_raw < STANDING_FLOOR:
            raise InsufficientStanding(
                f"citizen {citizen} raw standing {edge.raw_standing:.6g} in community "
                f"{community} cannot absorb {delta_raw:.6g}")
        edge.raw_standing = new_raw

    # -- normalized reads -----------------------------------------------------

    def devotions(self, citizen: int) -> dict[int, float]:
        """Normalized devotion over the citizen's memberships (sums to 1)."""
        p = self._citizen(citizen)
        total = left_sum(e.raw_devotion for e in p.memberships.values())
        if total == math.inf:
            raise Overflow(f"devotion total of citizen {citizen} overflowed")
        return {c: e.raw_devotion / total for c, e in p.memberships.items()}

    def devotion_matrix(self) -> np.ndarray:
        """Every citizen's `devotions` as a (citizens x communities) array, ids
        ascending, 0.0 off the memberships. Raw devotions start at 1.0 in a
        run and only grow, so there its positive cells are the memberships."""
        column = {c: j for j, c in enumerate(sorted(self.communities))}
        out = np.zeros((len(self.citizens), len(column)))
        for row, p in zip(out, sorted(self.citizens)):
            for c, d in self.devotions(p).items():
                row[column[c]] = d
        return out

    def standings(self, community: int) -> dict[int, float]:
        """Normalized standing over the community's members (sums to 1)."""
        c = self._community(community)
        raws = {p: self.citizens[p].memberships[community].raw_standing for p in c.members}
        total = left_sum(raws.values())
        if total == math.inf:
            raise Overflow(f"standing total of community {community} overflowed")
        return {p: r / total for p, r in raws.items()}

    def raw_standing(self, citizen: int, community: int) -> float:
        p = self._citizen(citizen)
        if community not in p.memberships:
            raise NotFound(f"citizen {citizen} has no membership in {community}")
        return p.memberships[community].raw_standing

    def member_communities(self, citizen: int) -> list[int]:
        """Sorted community ids the citizen belongs to."""
        return sorted(self._citizen(citizen).memberships)

    def signatures(self) -> dict[int, tuple[int, ...]]:
        """Every citizen's membership signature, its `member_communities` as a
        tuple, by citizen id ascending. It holds until a membership is added."""
        return {p: tuple(sorted(self.citizens[p].memberships)) for p in sorted(self.citizens)}

    # -- audit ----------------------------------------------------------------

    def audit(self, tol: float = 1e-9) -> None:
        """Full-fabric consistency check; raises AssertionError on violation."""
        for p in self.citizens.values():
            for c in p.memberships:
                assert c in self.communities, f"dangling community {c} on citizen {p.id}"
                assert p.id in self.communities[c].members, \
                    f"asymmetric membership: citizen {p.id} lists {c}"
            if p.memberships:
                total = sum(self.devotions(p.id).values())
                assert abs(total - 1.0) <= tol, f"devotion simplex broken for citizen {p.id}"
                for v in self.devotions(p.id).values():
                    assert 0.0 < v < 1.0 or len(p.memberships) == 1, \
                        f"devotion out of (0,1) for citizen {p.id}"
        for c in self.communities.values():
            for p in c.members:
                assert p in self.citizens, f"dangling citizen {p} in community {c.id}"
                assert c.id in self.citizens[p].memberships, \
                    f"asymmetric membership: community {c.id} lists {p}"
            if c.members:
                total = sum(self.standings(c.id).values())
                assert abs(total - 1.0) <= tol, f"standing simplex broken for community {c.id}"
            problem = c.bloc_problem()
            assert problem is None, problem

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "citizens": [
                {"id": p.id, "lambda": p.lambda_, "subscriber": p.subscriber,
                 "accepts_personal_ads": p.accepts_personal_ads}
                for p in sorted(self.citizens.values(), key=lambda x: x.id)
            ],
            "communities": [
                # "derived_from" is always null; it is still written so that
                # fabric.json stays byte-identical and the golden digests
                # (tests/test_golden.py, perfbench/golden.json) still match.
                {"id": c.id, "lambda": c.lambda_, "admin_registered": c.admin_registered,
                 "derived_from": None,
                 "principal_subcommunities": [sorted(g) for g in c.principal_subcommunities]}
                for c in sorted(self.communities.values(), key=lambda x: x.id)
            ],
            "memberships": [
                {"citizen": p.id, "community": c,
                 "raw_standing": e.raw_standing, "raw_devotion": e.raw_devotion,
                 "opted_in": e.opted_in}
                for p in sorted(self.citizens.values(), key=lambda x: x.id)
                for c, e in sorted(p.memberships.items())
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, doc: dict) -> "SocialFabric":
        """Rebuild a fabric from `to_dict` output.

        A document of another shape raises ValueError naming the offending
        record, e.g. "communities[2]: missing key 'id'"; every id must be an
        integer, a membership may appear once, and a community's
        "derived_from", when present, must be null.
        """
        if not isinstance(doc, dict):
            raise ValueError("the document must be a JSON object")
        for section in ("citizens", "communities", "memberships"):
            if not isinstance(doc.get(section), list):
                raise ValueError(f"missing list {section!r}")
        fab = cls()
        where = ""
        try:
            for k, rec in enumerate(doc["citizens"]):
                where = f"citizens[{k}]"
                fab.add_citizen(lambda_=_number(rec.get("lambda", 0.0), "lambda"),
                                subscriber=_flag(rec.get("subscriber", False), "subscriber"),
                                accepts_personal_ads=_flag(rec.get("accepts_personal_ads", False),
                                                           "accepts_personal_ads"),
                                citizen_id=_id(rec["id"], "id"))
            for k, rec in enumerate(doc["communities"]):
                where = f"communities[{k}]"
                if rec.get("derived_from") is not None:
                    raise ValueError(f"derived_from must be null, got {rec['derived_from']!r}")
                cid = fab.add_community(lambda_=_number(rec.get("lambda", 0.0), "lambda"),
                                        admin_registered=_flag(rec.get("admin_registered", False),
                                                               "admin_registered"),
                                        community_id=_id(rec["id"], "id"))
                fab.communities[cid].principal_subcommunities = [
                    {_id(p, "principal_subcommunities member") for p in g}
                    for g in rec.get("principal_subcommunities", [])]
            for k, rec in enumerate(doc["memberships"]):
                where = f"memberships[{k}]"
                fab.add_membership(_id(rec["citizen"], "citizen"),
                                   _id(rec["community"], "community"),
                                   _number(rec["raw_standing"], "raw_standing"),
                                   _number(rec["raw_devotion"], "raw_devotion"),
                                   _flag(rec.get("opted_in", True), "opted_in"))
        except KeyError as exc:
            raise ValueError(f"{where}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError, NotFound, AlreadyMember) as exc:
            raise ValueError(f"{where}: {exc}") from None
        return fab

    @classmethod
    def from_json(cls, text: str) -> "SocialFabric":
        return cls.from_dict(json.loads(text))
