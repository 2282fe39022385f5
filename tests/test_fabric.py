"""Hypergraph fabric: normalization, intersections, audit, serialization."""

import numpy as np
import pytest

from plural.errors import AlreadyMember, InsufficientStanding, NotFound
from plural.fabric import STANDING_FLOOR, SocialFabric


def small_fabric(n_citizens=4, n_communities=2, lambdas=(1.0, 1.0)):
    f = SocialFabric()
    for _ in range(n_citizens):
        f.add_citizen()
    for lam in lambdas[:n_communities]:
        f.add_community(lambda_=lam)
    return f


class TestMembershipNormalization:
    def test_single_membership_devotion_is_one(self):
        f = small_fabric()
        f.add_membership(0, 0, raw_standing=1.0, raw_devotion=5.0)
        assert f.devotion(0, 0) == 1.0

    def test_two_equal_members_split_standing(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.add_membership(1, 0, 1.0, 1.0)
        assert f.standing(0, 0) == pytest.approx(0.5, abs=1e-12)
        assert f.standing(1, 0) == pytest.approx(0.5, abs=1e-12)

    def test_proportional_standing(self):
        f = small_fabric()
        for p, raw in ((0, 1.0), (1, 1.0), (2, 2.0)):
            f.add_membership(p, 0, raw, 1.0)
        s = f.standings(0)
        assert s[0] == pytest.approx(0.25)
        assert s[1] == pytest.approx(0.25)
        assert s[2] == pytest.approx(0.5)

    def test_duplicate_edge_rejected(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        with pytest.raises(AlreadyMember):
            f.add_membership(0, 0, 1.0, 1.0)

    def test_unknown_ids_rejected(self):
        f = small_fabric()
        with pytest.raises(NotFound):
            f.add_membership(99, 0, 1.0, 1.0)
        with pytest.raises(NotFound):
            f.add_membership(0, 99, 1.0, 1.0)

    def test_nonpositive_weights_rejected(self):
        f = small_fabric()
        with pytest.raises(ValueError):
            f.add_membership(0, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.add_membership(0, 0, 1.0, -1.0)


class TestUpdateDevotion:
    def test_three_to_one_ratio(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.add_membership(0, 1, 1.0, 1.0)
        f.update_devotion(0, 0, 3.0)
        d = f.devotions(0)
        assert d[0] == pytest.approx(0.75)
        assert d[1] == pytest.approx(0.25)

    def test_equal_raw_gives_uniform(self):
        f = SocialFabric()
        f.add_citizen()
        for _ in range(4):
            f.add_community()
        for c in range(4):
            f.add_membership(0, c, 1.0, float(c + 1))
        for c in range(4):
            f.update_devotion(0, c, 2.0)
        assert all(abs(v - 0.25) < 1e-12 for v in f.devotions(0).values())

    def test_single_membership_stays_one(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 2.0)
        f.update_devotion(0, 0, 17.0)
        assert f.devotion(0, 0) == 1.0

    def test_missing_edge(self):
        f = small_fabric()
        with pytest.raises(NotFound):
            f.update_devotion(0, 0, 1.0)

    def test_untouched_order_preserved(self):
        f = SocialFabric()
        f.add_citizen()
        for _ in range(3):
            f.add_community()
        f.add_membership(0, 0, 1.0, 3.0)
        f.add_membership(0, 1, 1.0, 2.0)
        f.add_membership(0, 2, 1.0, 1.0)
        f.update_devotion(0, 1, 10.0)
        d = f.devotions(0)
        assert d[0] > d[2]


class TestUpdateStanding:
    def test_positive_delta(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.add_membership(1, 0, 1.0, 1.0)
        f.update_standing(0, 0, 1.0)
        s = f.standings(0)
        assert s[0] == pytest.approx(2 / 3)
        assert s[1] == pytest.approx(1 / 3)

    def test_zero_delta_identity(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.add_membership(1, 0, 3.0, 1.0)
        before = f.standings(0)
        f.update_standing(0, 0, 0.0)
        assert f.standings(0) == before

    def test_overspend_raises(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        with pytest.raises(InsufficientStanding):
            f.update_standing(0, 0, -1.0)
        # untouched on failure
        assert f.raw_standing(0, 0) == 1.0

    def test_spend_to_floor_allowed(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.update_standing(0, 0, -(1.0 - STANDING_FLOOR))
        assert f.raw_standing(0, 0) == pytest.approx(STANDING_FLOOR)


class TestIntersections:
    def test_disjoint_is_empty(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.add_membership(1, 1, 1.0, 1.0)
        assert f.intersect_communities(0, 1) is None

    def test_subset_returns_parent(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.add_membership(0, 1, 1.0, 1.0)
        f.add_membership(1, 1, 1.0, 1.0)
        assert f.intersect_communities(0, 1) == 0

    def test_set_algebra(self):
        f = SocialFabric()
        for _ in range(5):
            f.add_citizen()
        a = f.add_community()
        b = f.add_community()
        for p in (1, 2, 3):
            f.add_membership(p, a, 1.0, 1.0)
        for p in (2, 3, 4):
            f.add_membership(p, b, 1.0, 1.0)
        derived = f.intersect_communities(a, b)
        assert f.communities[derived].members == {2, 3}
        assert f.communities[derived].lambda_ == 0.0
        assert not f.communities[derived].admin_registered
        f.audit()

    def test_commutative_and_cached(self):
        f = SocialFabric()
        for _ in range(5):
            f.add_citizen()
        a, b = f.add_community(), f.add_community()
        for p in (0, 1, 2):
            f.add_membership(p, a, 1.0, 1.0)
        for p in (1, 2, 3):
            f.add_membership(p, b, 1.0, 1.0)
        d1 = f.intersect_communities(a, b)
        d2 = f.intersect_communities(b, a)
        assert d1 == d2

    def test_self_intersection_identity(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        assert f.intersect_communities(0, 0) == 0

    def test_new_joint_member_cascades(self):
        f = SocialFabric()
        for _ in range(6):
            f.add_citizen()
        a, b = f.add_community(), f.add_community()
        for p in (0, 1, 2):
            f.add_membership(p, a, 1.0, 1.0)
        for p in (1, 2, 3):
            f.add_membership(p, b, 1.0, 1.0)
        derived = f.intersect_communities(a, b)
        f.add_membership(4, a, 1.0, 1.0)
        f.add_membership(4, b, 1.0, 1.0)
        assert 4 in f.communities[derived].members
        f.audit()


class TestAuditAndSerialization:
    def test_roundtrip_exact(self):
        f = SocialFabric()
        for i in range(4):
            f.add_citizen(lambda_=float(i), subscriber=i % 2 == 0)
        a = f.add_community(lambda_=2.0, admin_registered=True)
        b = f.add_community()
        f.add_membership(0, a, 1.5, 2.5)
        f.add_membership(1, a, 0.5, 1.0)
        f.add_membership(1, b, 1.0, 3.0)
        f.communities[a].principal_subcommunities = [{0}, {1}]
        g = SocialFabric.from_json(f.to_json())
        assert g.to_dict() == f.to_dict()
        g.audit()

    def test_contract_field_names(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.25, 0.75)
        doc = f.to_dict()
        assert set(doc) >= {"citizens", "communities", "memberships"}
        edge = doc["memberships"][0]
        assert set(edge) >= {"citizen", "community", "raw_standing", "raw_devotion"}
        assert edge["raw_standing"] == 1.25
        assert edge["raw_devotion"] == 0.75

    @pytest.mark.parametrize("value", ["x", True, 1.5, "3"], ids=["str", "bool", "float", "digits"])
    def test_non_integer_derived_from_rejected(self, value):
        f = small_fabric()
        for p in range(3):
            f.add_membership(p, 0, 1.0, 1.0)
        for p in range(1, 4):
            f.add_membership(p, 1, 1.0, 1.0)
        derived = f.intersect_communities(0, 1)
        doc = f.to_dict()
        doc["communities"][derived]["derived_from"][1] = value
        with pytest.raises(ValueError, match=rf"^communities\[{derived}\]: derived_from entry "
                                             rf"must be an integer"):
            SocialFabric.from_dict(doc)


def test_randomized_mutation_invariants():
    # criterion-8-style soak at unit scale; the acceptance suite runs 10^4
    rng = np.random.default_rng(11)
    f = SocialFabric()
    for _ in range(12):
        f.add_citizen()
    for _ in range(4):
        f.add_community()
    for _ in range(600):
        op = rng.integers(4)
        p = int(rng.integers(12))
        c = int(rng.integers(4))
        try:
            if op == 0:
                f.add_membership(p, c, float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3)))
            elif op == 1:
                f.update_devotion(p, c, float(rng.uniform(0.1, 3)))
            elif op == 2:
                f.update_standing(p, c, float(rng.uniform(-0.5, 1.5)))
            else:
                a, b = int(rng.integers(4)), int(rng.integers(4))
                f.intersect_communities(a, b)
        except (AlreadyMember, NotFound, InsufficientStanding):
            pass
    f.audit(tol=1e-9)
    for p in f.citizens.values():
        if p.memberships:
            assert abs(sum(f.devotions(p.id).values()) - 1.0) <= 1e-9
    for c in f.communities.values():
        if c.members:
            assert abs(sum(f.standings(c.id).values()) - 1.0) <= 1e-9
