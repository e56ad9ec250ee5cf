"""Group catalog, spec parsing, subgroups, homomorphisms, automorphisms."""

import hashlib
import itertools
import json
import time
import tracemalloc

import pytest

from hgslab import (
    CosetSpace,
    FiniteGroup,
    GroupHom,
    InvalidSpec,
    abelian_maps,
    all_subgroups,
    are_isomorphic,
    automorphisms,
    build_group,
    catalog_complete,
    catalog_specs,
    enumerate_hgs,
    inner_automorphism,
    is_homomorphism,
    lambda_embed,
    lattice_transport_check,
    normal_subgroups,
    parse_spec,
    rho_conjugate,
    rho_embed,
    rho_orbit,
    rho_structure,
    structure_group,
    subgroup_closure,
    type_of,
)
from hgslab.constructions import _derived_subgroup
from hgslab.groups import (
    Subgroup,
    _generator_maps,
    _iso_candidates,
    abelian_specs,
    conjugacy_classes,
)

# number of isomorphism classes of groups of each order 1..15
CLASS_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1]


def test_catalog_class_counts():
    for n, want in enumerate(CLASS_COUNTS, start=1):
        assert len(catalog_specs(n)) == want, f"order {n}"


def test_catalog_complete_orders():
    assert catalog_complete(12)
    assert catalog_complete(21)
    assert catalog_complete(17)
    assert not catalog_complete(16)
    assert not catalog_complete(20)


def test_catalog_groups_all_build_and_validate():
    for n in range(1, 16):
        for spec in catalog_specs(n):
            G = build_group(spec)
            assert G.order == n
            assert all(G.table[0][x] == x for x in range(n))


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (2, 6)])
def test_elemab_table_is_digitwise_addition(p, k):
    # element x is named by its k base-p digits, most significant first
    G = build_group(f"elemab:{p}:{k}")
    digits = [tuple(x // p ** (k - 1 - i) % p for i in range(k))
              for x in range(p ** k)]
    assert G.names == tuple("".join(map(str, d)) for d in digits)
    index = {d: x for x, d in enumerate(digits)}
    for a, row in enumerate(G.table):
        assert row == tuple(
            index[tuple((u + v) % p for u, v in zip(digits[a], digits[b]))]
            for b in range(p ** k)
        )


def test_catalog_groups_pairwise_nonisomorphic():
    for n in (8, 12):
        built = [build_group(s) for s in catalog_specs(n)]
        for i, G in enumerate(built):
            for H in built[i + 1:]:
                assert are_isomorphic(G, H) is None


def test_parse_spec_round_trip():
    for text in ["cyclic:9", "dihedral:5", "quaternion:8", "sym:4",
                 "metacyclic:7:3:2", "product:cyclic:2,cyclic:4",
                 "elemab:3:2",
                 "product:(product:cyclic:2,cyclic:3),cyclic:5",
                 "product:cyclic:5,(product:cyclic:2,sym:3)",
                 "product:(product:(product:cyclic:2,cyclic:2),cyclic:2),elemab:3:2"]:
        assert str(parse_spec(text)) == text
    for spec in [s for n in range(1, 65) for s in catalog_specs(n)]:
        assert parse_spec(str(spec)) == spec, spec


def _nested(depth):
    """product:(product:(...),cyclic:1),cyclic:1 with depth parentheses."""
    return "product:(" * depth + "cyclic:1" + "),cyclic:1" * depth


def test_parse_spec_refuses_deep_nesting():
    from hgslab.groups import SPEC_NESTING_LIMIT

    assert build_group(_nested(SPEC_NESTING_LIMIT)).order == 1
    for depth in (SPEC_NESTING_LIMIT + 1, 350):
        with pytest.raises(InvalidSpec, match="nests deeper"):
            parse_spec(_nested(depth))


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
    # sym, alt and quaternion parts count with their own orders
    "product:sym:5,cyclic:1000",
    "product:quaternion:8,cyclic:200",
    "product:alt:5,(product:alt:4,cyclic:2)",
    "product:cyclic:2000,sym:3",
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


def test_subgroup_refuses_a_set_that_is_not_closed():
    # {0, 1} in C4 was accepted, and is_normal() said True
    with pytest.raises(InvalidSpec, match="not closed: the product 2 is missing"):
        Subgroup(build_group("cyclic:4"), [0, 1])
    assert Subgroup(build_group("cyclic:4"), [2, 0, 2]).elements == (0, 2)


def test_subgroup_as_group_refuses_a_set_that_is_not_closed():
    with pytest.raises(InvalidSpec, match="not closed: the product 2"):
        Subgroup(build_group("cyclic:4"), [0, 1]).as_group()


def _conjugate_after_orbit(G, g):
    N = enumerate_hgs(G)[0]
    rho_orbit(N)  # leaves the orbit record that rho_conjugate reads first
    return rho_conjugate(N, g)


ID_ENTRY_POINTS = [
    ("subgroup_closure", lambda G, g: subgroup_closure(G, [g])),
    ("lambda_embed", lambda_embed),
    ("rho_embed", rho_embed),
    ("inner_automorphism", inner_automorphism),
    ("rho_conjugate", lambda G, g: rho_conjugate(rho_structure(G), g)),
    ("rho_conjugate_on_a_record", _conjugate_after_orbit),
    ("lattice_transport_check",
     lambda G, g: lattice_transport_check(rho_structure(G), g)),
    ("Subgroup.is_normal", lambda G, g: Subgroup(G, [0, g]).is_normal()),
    ("CosetSpace", lambda G, g: CosetSpace(G, Subgroup(G, [0, g]))),
]


@pytest.mark.parametrize("name,call", ID_ENTRY_POINTS, ids=[n for n, _ in ID_ENTRY_POINTS])
@pytest.mark.parametrize("g", [-1, 4])
def test_entry_points_refuse_element_ids_out_of_range(name, call, g):
    # -1 used to read the last row, 4 raised a bare IndexError
    with pytest.raises(InvalidSpec, match=f"element id {g} out of range 0..3"):
        call(build_group("cyclic:4"), g)


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


@pytest.mark.parametrize("images", [
    (0, 1, 2, 3, 4, 99),
    (0, 1, 2, 3, 4, -7),
    (0, 1, 2, 3, 4, -1),
])
def test_hom_images_must_be_element_ids(images):
    S3 = build_group("sym:3")
    with pytest.raises(InvalidSpec, match="image ids"):
        GroupHom(S3, S3, images)
    assert not is_homomorphism(S3, S3, images)


@pytest.mark.parametrize("images", [(0, 1, 2), ()])
def test_is_homomorphism_refuses_a_short_image_array(images):
    S3 = build_group("sym:3")
    assert not is_homomorphism(S3, S3, images)


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


def test_finite_group_refuses_a_non_associative_table_of_order_26():
    # cyclic:26 with 2 and 15 exchanged on the intercalate at rows and
    # columns 1 and 14: still a Latin square with identity 0 and two-sided
    # inverses, but (1+1)+2 = 17 while 1+(1+2) = 4
    t = [list(row) for row in build_group("cyclic:26").table]
    for a, b in ((1, 1), (1, 14), (14, 1), (14, 14)):
        t[a][b] = {2: 15, 15: 2}[t[a][b]]
    with pytest.raises(InvalidSpec) as exc:
        FiniteGroup(t)
    assert str(exc.value) == "associativity fails at (1,1,2)"


def test_generating_set_generates():
    for spec in ["cyclic:12", "dihedral:6", "quaternion:8"]:
        G = build_group(spec)
        gens = G.generating_set()
        assert subgroup_closure(G, gens).elements == tuple(range(G.order))


# ---------------------------------------------------------------------------
# Cayley-graph extension against the BFS tree plus full table check


def _every_product_respected(G, H, images):
    """images[a*b] == images[a]*images[b] for every a, b, one by one;
    is_homomorphism decides it on G's generators."""
    return all(images[G.table[a][b]] == H.table[images[a]][images[b]]
               for a in range(G.order) for b in range(G.order))


def _extend_by_bfs_tree(G, gen_images, H):
    """The extension it replaced: images along a BFS spanning tree over the
    generating set, then every product of G checked."""
    gens = G.generating_set()
    img = {0: 0}
    frontier = [0]
    for x in frontier:
        for g, h in zip(gens, gen_images):
            y = G.table[x][g]
            if y not in img:
                img[y] = H.table[img[x]][h]
                frontier.append(y)
    images = tuple(img[x] for x in range(G.order))
    return images if _every_product_respected(G, H, images) else None


def _extend_along_edges(G, gen_images, H):
    """Generator images spread along G's Cayley graph from the identity,
    each edge checked once: the extension the product loops used."""
    gens = G.generating_set()
    img = [0] + [None] * (G.order - 1)
    frontier = [0]
    for x in frontier:
        for g, h in zip(gens, gen_images):
            y, z = G.table[x][g], H.table[img[x]][h]
            if img[y] is None:
                img[y] = z
                frontier.append(y)
            elif img[y] != z:
                return None
    return tuple(img)


def _product_scan(G, H, candidates, keep):
    """The loops the prefix backtrack replaced: every choice of generator
    images that keep accepts, in itertools.product order, extended along
    the edges."""
    for combo in itertools.product(*candidates):
        if keep(combo) and (images := _extend_along_edges(G, combo, H)):
            yield images


SMALL_CATALOG = [spec for n in range(1, 9) for spec in catalog_specs(n)]


def test_extension_equals_bfs_tree_and_table_check():
    checked = homs = 0
    for g_spec in SMALL_CATALOG:
        G = build_group(g_spec)
        k = len(G.generating_set())
        for h_spec in catalog_specs(G.order):
            H = build_group(h_spec)
            for combo in itertools.product(range(H.order), repeat=k):
                got = next(_generator_maps(G, H, [[h] for h in combo]), None)
                want = _extend_by_bfs_tree(G, combo, H)
                assert got == want == _extend_along_edges(G, combo, H), (
                    g_spec, h_spec, combo)
                checked += 1
                homs += got is not None
    assert (checked, homs) == (3702, 1238)


CATALOG_24 = [spec for n in range(1, 25) for spec in catalog_specs(n)]


@pytest.mark.parametrize("spec", CATALOG_24, ids=str)
def test_backtrack_equals_the_product_scan_on_the_catalog(spec):
    # against every catalog group of the same order (199 ordered pairs in
    # all): the first isomorphism is the scan's first bijection, and the
    # automorphisms are all of the scan's, sorted
    G = build_group(spec)
    distinct = lambda combo: len(set(combo)) == len(combo)
    for other in catalog_specs(G.order):
        H = build_group(other)
        cand = [_iso_candidates(G, H, g) for g in G.generating_set()]
        scan = [img for img in _product_scan(G, H, cand, distinct)
                if len(set(img)) == G.order]
        iso = are_isomorphic(G, H)
        assert (iso and iso.images) == (scan[0] if scan else None), other
        if H is G:
            assert [phi.images for phi in automorphisms(G)] == sorted(scan)


# every catalog group of orders 1-15 and 21, with sym:5, elemab:2:4 and
# dihedral:12 beyond them
ABELIAN_MAP_SPECS = sorted(
    {str(s) for n in [*range(1, 16), 21] for s in catalog_specs(n)}
    | {"sym:5", "elemab:2:4", "dihedral:12"})


@pytest.mark.parametrize("spec", ABELIAN_MAP_SPECS)
def test_abelian_maps_equal_the_product_scan(spec):
    # the scan keeps every image whose order divides the generator's, so it
    # also covers the search's pruning by the derived subgroup
    G = build_group(spec)
    orders, t = G.element_orders, G.table
    cand = [[x for x in range(G.order) if orders[g] % orders[x] == 0]
            for g in G.generating_set()]
    commute = lambda combo: all(t[a][b] == t[b][a] for a in combo for b in combo)
    assert [m.images for m in abelian_maps(G)] == sorted(
        _product_scan(G, G, cand, commute))


@pytest.mark.parametrize("spec", ABELIAN_MAP_SPECS)
def test_derived_subgroup_is_the_closure_of_every_commutator(spec):
    G = build_group(spec)
    t, inv = G.table, G.inverse
    every = {t[t[a][b]][inv[t[b][a]]] for a in range(G.order) for b in range(G.order)}
    assert _derived_subgroup(G) == set(subgroup_closure(G, every).elements)


def test_isomorphisms_of_the_large_elementary_abelian_rho_structures():
    # the full product of generator images was 23 s for C2^6 before the
    # prefix backtrack, and did not finish for C2^10
    N = rho_structure(build_group("elemab:2:6"))
    start = time.perf_counter()
    assert str(type_of(N)) == "product:" + ",".join(["cyclic:2"] * 6)
    assert time.perf_counter() - start < 2
    G = build_group("elemab:2:10")
    S = structure_group(rho_structure(G))
    start = time.perf_counter()
    iso = are_isomorphic(G, S)
    assert time.perf_counter() - start < 5
    assert is_homomorphism(G, S, iso.images) and len(set(iso.images)) == G.order


def test_automorphisms_equal_every_bijection_respecting_the_table():
    for spec in SMALL_CATALOG:
        G = build_group(spec)
        want = [
            (0,) + rest
            for rest in itertools.permutations(range(1, G.order))
            if _every_product_respected(G, G, (0,) + rest)
        ]
        assert [phi.images for phi in automorphisms(G)] == want, spec


# sha256 prefixes of [table, names, inverse] per group, recorded from the
# per-family builders (one loop nest each for dihedral, dicyclic and
# metacyclic) that the shared semidirect-product builder replaced
SEMIDIRECT_FAMILIES = {
    "dihedral": ([f"dihedral:{n}" for n in range(1, 40)], "254b8fce6ae45e46b325"),
    "dicyclic": (
        [f"dicyclic:{n}" for n in range(4, 39, 2)] + ["quaternion:8"],
        "7f2defcbc2c46b1afc7e",
    ),
    "metacyclic": (
        [f"metacyclic:{p}:{q}:{d}" for p, q, d in [
            (3, 2, 2), (5, 2, 4), (7, 2, 6), (7, 3, 2), (7, 3, 4), (13, 3, 3),
            (31, 5, 2)]],
        "0d2864cf619f9546244b",
    ),
}


def _table_digest(specs):
    blob = json.dumps([[G.table, G.names, G.inverse] for G in map(build_group, specs)])
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


@pytest.mark.parametrize("family", sorted(SEMIDIRECT_FAMILIES))
def test_semidirect_tables_names_and_inverses_are_unchanged(family):
    specs, want = SEMIDIRECT_FAMILIES[family]
    assert _table_digest(specs) == want


# sha256 prefixes of [table, names, inverse] per group, recorded from the
# builders that made cyclic rows one sum mod n each and chained a quadruple
# loop per pair of factors, before the product fold replaced them
CATALOG_TABLE_FAMILIES = {
    "cyclic": ([f"cyclic:{n}" for n in range(1, 65)] + ["cyclic:1024"],
               "652530c961379ec39fb7"),
    "elemab": (
        [f"elemab:{p}:{k}" for p, top in [(2, 10), (3, 6), (5, 4), (7, 3)]
         for k in range(1, top + 1)],
        "807ef3ba84685c830734",
    ),
    "product": (
        sorted({str(s) for n in range(1, 65) for s in abelian_specs(n)
                if s.kind == "product"}) + [
            "product:cyclic:2,cyclic:512",
            "product:sym:3,alt:4",
            "product:dihedral:4,quaternion:8",
            "product:sym:3,cyclic:2,dicyclic:6",
            "product:(product:cyclic:2,cyclic:3),cyclic:5",
            "product:cyclic:5,(product:cyclic:2,sym:3)",
            "product:(product:cyclic:2,cyclic:2),(product:cyclic:3,dihedral:3)",
            "product:(product:(product:cyclic:2,cyclic:2),cyclic:2),elemab:3:2",
        ],
        "2100966d9cf95156e374",
    ),
}


@pytest.mark.parametrize("family", sorted(CATALOG_TABLE_FAMILIES))
def test_catalog_tables_names_and_inverses_are_unchanged(family):
    specs, want = CATALOG_TABLE_FAMILIES[family]
    assert _table_digest(specs) == want


@pytest.mark.parametrize(
    "text", ["elemab:2:10", "cyclic:1024", "dihedral:512", "dicyclic:512"])
def test_order_1024_tables_share_their_ints(text):
    # n^2 fresh ints took 32 MB; shared ones leave the 8 MB of row pointers.
    # Built around the cache, so no earlier build can make it pass.
    from hgslab.groups import _build_group_uncached

    spec = parse_spec(text)
    tracemalloc.start()
    G = FiniteGroup(*_build_group_uncached(spec), spec=spec)
    retained, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert G.order == 1024
    assert retained < 12 * 2**20


def _classes_by_scanning_all_of_g(G):
    """Each class as the conjugates of one element by every g in G."""
    seen, classes = set(), []
    for a in range(G.order):
        if a not in seen:
            cls = {G.conj(a, g) for g in range(G.order)}
            seen |= cls
            classes.append(tuple(sorted(cls)))
    return classes


def test_inner_automorphism_equals_conj_on_the_catalog():
    specs = [str(g) for n in range(1, 25) for g in catalog_specs(n)] + ["sym:5"]
    for spec in specs:
        G = build_group(spec)
        for g in range(G.order):
            want = tuple(G.conj(x, g) for x in range(G.order))
            assert inner_automorphism(G, g).images == want, (spec, g)


def test_conjugacy_classes_equal_the_scan_over_all_of_g():
    specs = [str(g) for n in range(1, 25) for g in catalog_specs(n)]
    specs += ["sym:5", "metacyclic:31:5:2", "elemab:2:6"]
    for spec in specs:
        G = build_group(spec)
        assert conjugacy_classes(G) == _classes_by_scanning_all_of_g(G), spec
