"""Group catalog, spec parsing, subgroups, homomorphisms, automorphisms."""

import pytest

from hgslab import (
    FiniteGroup,
    GroupHom,
    InvalidSpec,
    all_subgroups,
    are_isomorphic,
    automorphisms,
    build_group,
    catalog_complete,
    catalog_specs,
    inner_automorphism,
    is_homomorphism,
    normal_subgroups,
    parse_spec,
    subgroup_closure,
)

# number of isomorphism classes of groups of each order 1..15
CLASS_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1]


def test_catalog_class_counts():
    for n, want in enumerate(CLASS_COUNTS, start=1):
        assert len(catalog_specs(n)) == want, f"order {n}"


def test_catalog_complete_orders():
    assert catalog_complete(12)
    assert catalog_complete(21)
    assert not catalog_complete(16)
    assert not catalog_complete(20)


def test_catalog_groups_all_build_and_validate():
    for n in range(1, 16):
        for spec in catalog_specs(n):
            G = build_group(spec)
            assert G.order == n
            assert all(G.table[0][x] == x for x in range(n))


def test_catalog_groups_pairwise_nonisomorphic():
    for n in (8, 12):
        built = [build_group(s) for s in catalog_specs(n)]
        for i, G in enumerate(built):
            for H in built[i + 1:]:
                assert are_isomorphic(G, H) is None


def test_parse_spec_round_trip():
    for text in ["cyclic:9", "dihedral:5", "quaternion:8", "sym:4",
                 "metacyclic:7:3:2", "product:cyclic:2,cyclic:4",
                 "elemab:3:2"]:
        assert str(parse_spec(text)) == text


def test_parse_spec_rejects_garbage():
    for text in ["", "nosuchkind:4", "cyclic:x", "cyclic"]:
        with pytest.raises(InvalidSpec):
            parse_spec(text)
    with pytest.raises(InvalidSpec):
        build_group("cyclic:0")


def test_metacyclic_requires_d_of_order_q():
    with pytest.raises(InvalidSpec):
        build_group("metacyclic:7:3:3")
    G = build_group("metacyclic:7:3:2")
    # t s t^-1 = s^2 with s at index 3, t at index 1
    t_s = G.table[1][3]
    assert G.table[t_s][G.inverse[1]] == G.table[3][3]


@pytest.mark.parametrize("text", [
    "cyclic:1025",
    "cyclic:100000",
    "dihedral:513",
    "dicyclic:1000",
    "metacyclic:1031:2:1030",
    "elemab:2:11",
    "elemab:2:1000000000",
    "product:cyclic:64,cyclic:17",
    "product:cyclic:2,(product:cyclic:32,cyclic:32)",
])
def test_build_group_refuses_orders_above_the_limit(text):
    with pytest.raises(InvalidSpec, match="above the limit of 1024"):
        build_group(text)


def test_order_limit_admits_what_the_package_builds():
    from hgslab.groups import GROUP_ORDER_LIMIT, _spec_order

    assert GROUP_ORDER_LIMIT >= 120
    assert build_group("sym:5").order == 120
    assert _spec_order(parse_spec("elemab:2:10")) == 1024
    assert _spec_order(parse_spec("product:dihedral:4,cyclic:3")) == 24
    # rejected parameters keep their own errors
    with pytest.raises(InvalidSpec, match="positive"):
        build_group("cyclic:0")
    with pytest.raises(InvalidSpec, match="prime"):
        build_group("elemab:4:2")


def test_build_group_accepts_text_and_spec():
    assert build_group("cyclic:6").table == build_group(parse_spec("cyclic:6")).table


def test_abelian_and_center():
    assert build_group("cyclic:6").is_abelian
    S3 = build_group("sym:3")
    assert not S3.is_abelian
    assert S3.center() == (0,)
    D4 = build_group("dihedral:4")
    assert len(D4.center()) == 2


def test_element_orders():
    Q8 = build_group("quaternion:8")
    orders = sorted(Q8.element_orders)
    assert orders.count(1) == 1
    assert orders.count(2) == 1  # a single involution
    assert orders.count(4) == 6


def test_subgroup_closure_and_normality():
    C6 = build_group("cyclic:6")
    H = subgroup_closure(C6, [2])
    assert H.elements == (0, 2, 4)
    assert H.is_normal()
    S3 = build_group("sym:3")
    subs = all_subgroups(S3)
    assert len(subs) == 6
    assert len(normal_subgroups(S3)) == 3
    orders = sorted(len(h.elements) for h in subs)
    assert orders == [1, 2, 2, 2, 3, 6]


def test_subgroup_as_group():
    S3 = build_group("sym:3")
    A3 = next(h for h in normal_subgroups(S3) if len(h.elements) == 3)
    H, elems = A3.as_group()
    assert H.order == 3
    assert are_isomorphic(H, build_group("cyclic:3")) is not None
    assert set(elems) == set(A3.elements)


def test_automorphism_counts():
    for spec, want in [("cyclic:6", 2), ("elemab:2:2", 6), ("sym:3", 6),
                       ("dihedral:4", 8), ("quaternion:8", 24)]:
        assert len(automorphisms(build_group(spec))) == want, spec


def test_inner_automorphism_is_automorphism():
    S3 = build_group("sym:3")
    for g in range(6):
        phi = inner_automorphism(S3, g)
        assert is_homomorphism(S3, S3, phi.images)
        assert sorted(phi.images) == list(range(6))


def test_product_spec_isomorphic_to_cyclic():
    G = build_group("product:cyclic:2,cyclic:3")
    assert are_isomorphic(G, build_group("cyclic:6")) is not None
    H = build_group("product:cyclic:2,cyclic:2")
    assert are_isomorphic(H, build_group("cyclic:4")) is None


def test_hom_compose_and_call():
    C4 = build_group("cyclic:4")
    f = GroupHom(C4, C4, [0, 2, 0, 2])  # doubling
    g = f.compose(f)
    assert g.images == (0, 0, 0, 0)
    assert f(1) == 2


def test_finite_group_rejects_broken_table():
    with pytest.raises(InvalidSpec):
        FiniteGroup(((0, 1), (1, 1)))  # not a Latin square
    with pytest.raises(InvalidSpec):
        # a Latin square with identity that is a loop, not a group
        FiniteGroup(((0, 1, 2, 3, 4),
                     (1, 0, 3, 4, 2),
                     (2, 3, 4, 0, 1),
                     (3, 4, 1, 2, 0),
                     (4, 2, 0, 1, 3)))


def test_generating_set_generates():
    for spec in ["cyclic:12", "dihedral:6", "quaternion:8"]:
        G = build_group(spec)
        gens = G.generating_set()
        assert subgroup_closure(G, gens).elements == tuple(range(G.order))
