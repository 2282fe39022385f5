"""Hypergraph fabric: normalization, mutations, audit, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert f.devotions(0)[0] == 1.0

    def test_two_equal_members_split_standing(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.add_membership(1, 0, 1.0, 1.0)
        assert f.standings(0)[0] == pytest.approx(0.5, abs=1e-12)
        assert f.standings(0)[1] == pytest.approx(0.5, abs=1e-12)

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
        assert f.devotions(0)[0] == 1.0

    def test_missing_edge(self):
        f = small_fabric()
        with pytest.raises(NotFound):
            f.update_devotion(0, 0, 1.0)

    @pytest.mark.parametrize("raw", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, raw):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 2.0)
        with pytest.raises(ValueError, match="finite"):
            f.update_devotion(0, 0, raw)
        assert f.devotions(0) == {0: 1.0}

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

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf"), 1.7e308])
    def test_non_finite_rejected(self, delta):
        # 1.7e308 is finite, but the sum overflows
        f = small_fabric()
        f.add_membership(0, 0, 1e308, 1.0)
        f.add_membership(1, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            f.update_standing(0, 0, delta)
        assert f.raw_standing(0, 0) == 1e308

    def test_spend_to_floor_allowed(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        f.update_standing(0, 0, -(1.0 - STANDING_FLOOR))
        assert f.raw_standing(0, 0) == pytest.approx(STANDING_FLOOR)


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
        f.add_membership(0, 0, 1.0, 1.0)
        doc = f.to_dict()
        doc["communities"][1]["derived_from"] = [0, value]
        with pytest.raises(ValueError, match=r"^communities\[1\]: derived_from must be null, got "):
            SocialFabric.from_dict(doc)

    def test_null_or_missing_derived_from_loads(self):
        f = small_fabric()
        f.add_membership(0, 0, 1.0, 1.0)
        doc = f.to_dict()
        assert [c["derived_from"] for c in doc["communities"]] == [None, None]
        del doc["communities"][1]["derived_from"]
        assert SocialFabric.from_dict(doc).to_dict() == f.to_dict()


N_CITIZENS, N_COMMUNITIES = 12, 4
RAW = st.floats(min_value=1e-3, max_value=1e3)
MUTATION = st.one_of(
    st.tuples(st.just("add"), st.integers(0, N_CITIZENS - 1), st.integers(0, N_COMMUNITIES - 1),
              RAW, RAW),
    st.tuples(st.just("devotion"), st.integers(0, N_CITIZENS - 1),
              st.integers(0, N_COMMUNITIES - 1), RAW),
    st.tuples(st.just("standing"), st.integers(0, N_CITIZENS - 1),
              st.integers(0, N_COMMUNITIES - 1), st.floats(min_value=-2.0, max_value=2.0)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(MUTATION, max_size=80))
def test_randomized_mutation_invariants(ops):
    f = small_fabric(N_CITIZENS, N_COMMUNITIES, lambdas=(1.0,) * N_COMMUNITIES)
    for op, p, c, *args in ops:
        try:
            if op == "add":
                f.add_membership(p, c, *args)
            elif op == "devotion":
                f.update_devotion(p, c, *args)
            else:
                f.update_standing(p, c, *args)
        except (AlreadyMember, NotFound, InsufficientStanding):
            pass
    f.audit(tol=1e-9)
    simplexes = [f.devotions(p) for p in f.citizens if f.citizens[p].memberships]
    simplexes += [f.standings(c) for c in f.communities if f.communities[c].members]
    for weights in simplexes:
        assert all(0.0 < w <= 1.0 for w in weights.values())
        assert abs(sum(weights.values()) - 1.0) <= 1e-9


@st.composite
def valid_fabrics(draw):
    f = SocialFabric()
    for _ in range(draw(st.integers(1, 8))):
        f.add_citizen(lambda_=draw(st.floats(0, 10)), subscriber=draw(st.booleans()),
                      accepts_personal_ads=draw(st.booleans()))
    for _ in range(draw(st.integers(1, 4))):
        f.add_community(lambda_=draw(st.floats(0, 10)), admin_registered=draw(st.booleans()))
    for p in f.citizens:
        for c in draw(st.sets(st.sampled_from(sorted(f.communities)))):
            f.add_membership(p, c, draw(RAW), draw(RAW), opted_in=draw(st.booleans()))
    for c in f.communities.values():
        if len(c.members) >= 2 and draw(st.booleans()):
            # 2-7 disjoint non-empty blocs: the first k members seed one bloc
            # each, and every other member joins one of them or none
            members = draw(st.permutations(sorted(c.members)))
            k = draw(st.integers(2, min(7, len(members))))
            labels = list(range(k)) + draw(st.lists(st.integers(-1, k - 1),
                                                    min_size=len(members) - k,
                                                    max_size=len(members) - k))
            c.principal_subcommunities = [{m for m, j in zip(members, labels) if j == b}
                                          for b in range(k)]
    return f


@settings(max_examples=100, deadline=None, derandomize=True)
@given(valid_fabrics())
def test_json_roundtrip_property(f):
    g = SocialFabric.from_json(f.to_json())
    assert g.to_dict() == f.to_dict()
    g.audit()
    assert all(c["derived_from"] is None for c in g.to_dict()["communities"])
