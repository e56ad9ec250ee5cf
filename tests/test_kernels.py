"""Row-gather kernels against the per-point loops they replaced.

Permutation products, conjugations and the table-law checks read whole rows
with `operator.itemgetter` gathers.  The loops below are the per-point
versions those kernels replaced, kept as test-only oracles: on true and on
seeded corrupted inputs both must give the same answer, and where a check
raises, the same exception with the same (x,y,z) witness.  Orders 1 and 2
get their own runs, since itemgetter with one index returns a scalar.
"""

import random

import pytest

from hgslab import (
    automorphisms,
    brace_from_subgroup,
    build_group,
    enumerate_hgs,
    inner_automorphism,
    rho_partition,
    ybe_map,
)
from hgslab.braces import (
    SkewBrace,
    YbeMap,
    _check_brace_relation,
    _right_relation_at,
)
from hgslab.errors import BraceAxiomError, InvalidSpec
from hgslab.groups import FiniteGroup, _respects
from hgslab.perms import (
    _compose,
    _conjugate_all,
    _cycle_at_0,
    _invert,
    _tuple_order,
)

SEED = 20261018


# ---------------------------------------------------------------------------
# Per-point oracles


def compose_loop(p, q):
    return tuple(p[x] for x in q)


def conjugate_loop(p, q):
    out = [0] * len(p)
    for x, qx in enumerate(q):
        out[qx] = q[p[x]]
    return tuple(out)


def respects_loop(images, src, dst):
    n = len(src)
    return all(
        images[src[a][b]] == dst[images[a]][images[b]]
        for a in range(n)
        for b in range(n)
    )


def associativity_loop(t):
    rng = range(len(t))
    for a in rng:
        ta = t[a]
        for b in rng:
            tab = t[ta[b]]
            tb = t[b]
            for c in rng:
                if tab[c] != ta[tb[c]]:
                    raise InvalidSpec(f"associativity fails at ({a},{b},{c})")


def brace_relation_loop(star, circ, star_inverse):
    n = len(star)
    for x in range(n):
        cx = circ[x]
        xi = star_inverse[x]
        for y in range(n):
            row = star[star[cx[y]][xi]]
            sy = star[y]
            for z in range(n):
                if cx[sy[z]] != row[cx[z]]:
                    raise BraceAxiomError(
                        f"brace relation fails at (x,y,z)=({x},{y},{z})"
                    )


def right_relation_loop(B, g):
    star, circ = B.star, B.circ
    gi = B.star_inverse[g]
    n = B.size
    for y in range(n):
        row = star[star[circ[y][g]][gi]]
        sy = star[y]
        for z in range(n):
            if circ[sy[z]][g] != row[circ[z][g]]:
                return False
    return True


def braid_loop(L, R):
    n = len(L)
    for x in range(n):
        for y in range(n):
            u, v = L[x][y], R[x][y]
            for z in range(n):
                b, c = L[v][z], R[v][z]
                a, b2 = L[u][b], R[u][b]
                p, q = L[y][z], R[y][z]
                d, e = L[x][p], R[x][p]
                f, h = L[e][q], R[e][q]
                if (a, b2, c) != (d, f, h):
                    return False
    return True


def outcome(fn, *args):
    """(exception type, message), or None when fn returns normally."""
    try:
        fn(*args)
    except (InvalidSpec, BraceAxiomError) as exc:
        return type(exc), str(exc)
    return None


def swapped(row, i, j):
    row = list(row)
    row[i], row[j] = row[j], row[i]
    return tuple(row)


def swap_row(table, a, i, j):
    return tuple(swapped(row, i, j) if k == a else row
                 for k, row in enumerate(table))


def swap_in_table(table, rng):
    """The table with two entries of one seeded row swapped."""
    n = len(table)
    i, j = rng.sample(range(n), 2)
    return swap_row(table, rng.randrange(n), i, j)


def swap_mutants(r):
    """(left, right) of r with two entries of one row swapped, every way."""
    n = r.size
    for a in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                yield swap_row(r.left, a, i, j), r.right
                yield r.left, swap_row(r.right, a, i, j)


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


SMALL_GROUPS = ["cyclic:2", "sym:3", "dihedral:4", "quaternion:8",
                "product:cyclic:2,cyclic:6", "metacyclic:7:3:2"]


# ---------------------------------------------------------------------------
# Permutation products


@pytest.mark.parametrize("n", [1, 2, 3, 120])
def test_compose_and_conjugate_all_match_loops(n):
    rng = random.Random(f"{SEED}/{n}")
    elements = [random_perm(rng, n) for _ in range(20)]
    for _ in range(10):
        p, q = random_perm(rng, n), random_perm(rng, n)
        assert _compose(p, q) == compose_loop(p, q)
        got = _conjugate_all(elements, q, _invert(q))
        assert got == [conjugate_loop(e, q) for e in elements]
        assert all(type(c) is tuple and len(c) == n for c in got)


def test_compose_on_zero_points():
    assert _compose((), ()) == ()
    assert _conjugate_all([()], (), ()) == [()]


# ---------------------------------------------------------------------------
# Homomorphism rows


@pytest.mark.parametrize("spec", SMALL_GROUPS + ["sym:5"])
def test_respects_on_automorphisms_and_swapped_images(spec):
    G = build_group(spec)
    rng = random.Random(f"{SEED}/{spec}")
    homs = [phi.images for phi in automorphisms(G)[:12]]
    homs += [inner_automorphism(G, g).images for g in range(min(G.order, 6))]
    homs.append((0,) * G.order)  # the trivial endomorphism
    for images in homs:
        assert _respects(images, G.table, G.table)
        assert respects_loop(images, G.table, G.table)
        if G.order < 2:
            continue
        i, j = rng.sample(range(G.order), 2)
        bad = swapped(images, i, j)
        assert _respects(bad, G.table, G.table) == respects_loop(
            bad, G.table, G.table
        )


def test_respects_on_every_corrupted_source_row():
    G = build_group("dihedral:4")
    identity = tuple(range(G.order))
    for a in range(G.order):
        src = swap_row(G.table, a, 1, 2)
        assert not _respects(identity, src, G.table)
        assert not respects_loop(identity, src, G.table)


def test_respects_between_different_tables():
    C6, C3 = build_group("cyclic:6"), build_group("cyclic:3")
    reduce_mod_3 = tuple(a % 3 for a in range(6))
    assert _respects(reduce_mod_3, C6.table, C3.table)
    for i in range(6):
        for j in range(i + 1, 6):
            bad = swapped(reduce_mod_3, i, j)
            assert _respects(bad, C6.table, C3.table) == respects_loop(
                bad, C6.table, C3.table
            )


# ---------------------------------------------------------------------------
# Associativity and the brace relations


@pytest.mark.parametrize("spec", SMALL_GROUPS + ["sym:4"])
def test_associativity_errors_match_on_corrupted_tables(spec):
    table = build_group(spec).table
    rng = random.Random(f"{SEED}/assoc/{spec}")
    failures = 0
    for _ in range(25):
        G = FiniteGroup(table)
        G.table = swap_in_table(table, rng)
        want = outcome(associativity_loop, G.table)
        assert outcome(G._validate_associativity) == want
        failures += want is not None
    assert failures > 0


def test_associativity_witness_on_a_valid_table_is_none():
    for spec in SMALL_GROUPS:
        G = build_group(spec)
        assert outcome(G._validate_associativity) is None


@pytest.mark.parametrize("spec", ["sym:3", "dihedral:4", "metacyclic:7:3:2",
                                  "dicyclic:6"])
def test_brace_relation_errors_match_on_corrupted_tables(spec):
    G = build_group(spec)
    rng = random.Random(f"{SEED}/brace/{spec}")
    failures = 0
    for N in enumerate_hgs(G)[:8]:
        good = brace_from_subgroup(N)
        assert outcome(_check_brace_relation, good) is None
        for g in range(G.order):
            assert _right_relation_at(good, g) == right_relation_loop(good, g)
        for _ in range(6):
            star = swap_in_table(good.star, rng)
            try:
                B = SkewBrace(star, good.circ, G)
            except BraceAxiomError:
                continue  # a row lost its identity entry
            want = outcome(brace_relation_loop, B.star, B.circ, B.star_inverse)
            assert outcome(_check_brace_relation, B) == want
            failures += want is not None
            for g in range(G.order):
                assert _right_relation_at(B, g) == right_relation_loop(B, g)
    assert failures > 0


# ---------------------------------------------------------------------------
# The braid relation


def test_braid_holds_on_every_catalog_brace(catalog_structures):
    for N in catalog_structures:
        r = ybe_map(brace_from_subgroup(N))
        assert r.braid_holds()
        assert braid_loop(r.left, r.right)


@pytest.mark.parametrize("spec", ["sym:3", "cyclic:4"])
def test_braid_holds_matches_loop_on_every_swap(spec):
    # some swaps on sym:3 break only the third coordinate of the braid
    # relation, and some on cyclic:4 only the second
    broken = 0
    for N in enumerate_hgs(build_group(spec)):
        r = ybe_map(brace_from_subgroup(N))
        for L, R in swap_mutants(r):
            want = braid_loop(L, R)
            assert YbeMap(r.size, L, R).braid_holds() == want
            broken += not want
    assert broken > 0


def test_braid_holds_matches_loop_on_swapped_catalog_maps(catalog_structures):
    rng = random.Random(f"{SEED}/braid")
    checked = 0
    for N in catalog_structures[::7]:
        r = ybe_map(brace_from_subgroup(N))
        if r.size < 2:
            continue
        for L, R in rng.sample(list(swap_mutants(r)), 2):
            assert YbeMap(r.size, L, R).braid_holds() == braid_loop(L, R)
            checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# Order of the elements of regular groups


def test_cycle_at_0_is_the_order_on_catalog_structures(catalog_structures):
    assert len(catalog_structures) == 376
    for N in catalog_structures:
        for p in N.perms.elements:
            assert _cycle_at_0(p.images) == _tuple_order(p.images)


# ---------------------------------------------------------------------------
# Orders 1 and 2, where a one-index gather would return a scalar


@pytest.mark.parametrize("spec,count", [("cyclic:1", 1), ("cyclic:2", 1)])
def test_orders_one_and_two_end_to_end(spec, count):
    G = build_group(spec)
    inv = enumerate_hgs(G)
    assert len(inv) == count
    orbits = rho_partition(inv)
    assert [o.size for o in orbits] == [1]
    for N in inv:
        B = brace_from_subgroup(N)
        assert B.star == G.table
        r = ybe_map(B)
        assert r.is_bijective() and r.braid_holds()
        # the trivial brace of an abelian group gives the flip (x,y) -> (y,x)
        assert r.to_json()["map"] == [
            [[y, x] for y in range(G.order)] for x in range(G.order)
        ]
