"""Row-gather kernels against the per-point loops they replaced.

Permutation products, conjugations and the table-law checks read whole rows
with `operator.itemgetter` gathers; the homomorphism law (`_respects`) reads
one column pair per generator of its source group.  The loops below are the per-point
versions those kernels replaced, kept as test-only oracles: on true and on
seeded corrupted inputs both must give the same answer, and where a check
raises, the same exception with the same (x,y,z) witness.  Orders 1 and 2
get their own runs, since itemgetter with one index returns a scalar.
The one cycle walk behind permutation orders, signs and cycle names is
checked against brute force and against names recorded before the merge.
"""

import hashlib
import itertools
import random

import pytest

from hgslab import (
    automorphisms,
    braces,
    brace_from_subgroup,
    build_group,
    catalog_specs,
    enumerate_hgs,
    inner_automorphism,
    rho_partition,
    rho_structure,
    ybe_map,
)
from hgslab.braces import (
    SkewBrace,
    YbeMap,
    _actions_hold,
    _check_brace_relation,
    _lambda_rows,
    _right_relation_at,
    is_two_sided,
)
from hgslab.errors import BraceAxiomError, BraidError, InvalidSpec
from hgslab.groups import (
    FiniteGroup,
    _acts,
    _associative,
    _cycle_at_0,
    _perm_sign,
    _generator_maps,
    _respects,
    subgroup_closure,
)
from hgslab.perms import _compose, _conjugate_all, _invert, _tuple_order

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


def acts_loop(rows, table, gens):
    rng = range(len(rows))
    return all(rows[table[y][g]][z] == rows[y][rows[g][z]]
               for g in gens for y in rng for z in rng)


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


def order_4_tables():
    """Every table of order 4 whose row 0 is the identity and whose rows
    are permutations (13,824)."""
    ident = tuple(range(4))
    for rows in itertools.product(itertools.permutations(range(4)), repeat=3):
        yield (ident, *rows)


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
        assert _respects(images, G, G)
        assert respects_loop(images, G.table, G.table)
        if G.order < 2:
            continue
        i, j = rng.sample(range(G.order), 2)
        bad = swapped(images, i, j)
        assert _respects(bad, G, G) == respects_loop(bad, G.table, G.table)


def test_respects_on_every_corrupted_source_row():
    # _respects takes its source as a FiniteGroup, and each of these tables
    # (a row with two entries swapped) is refused as one
    G = build_group("dihedral:4")
    identity = tuple(range(G.order))
    for a in range(G.order):
        src = swap_row(G.table, a, 1, 2)
        with pytest.raises(InvalidSpec):
            FiniteGroup(src)
        assert not respects_loop(identity, src, G.table)


def test_respects_between_different_tables():
    C6, C3 = build_group("cyclic:6"), build_group("cyclic:3")
    reduce_mod_3 = tuple(a % 3 for a in range(6))
    assert _respects(reduce_mod_3, C6, C3)
    for i in range(6):
        for j in range(i + 1, 6):
            bad = swapped(reduce_mod_3, i, j)
            assert _respects(bad, C6, C3) == respects_loop(
                bad, C6.table, C3.table
            )


RESPECTS_GROUPS = [str(s) for n in range(1, 16) for s in catalog_specs(n)]
RESPECTS_TARGETS = ["cyclic:2", "cyclic:3", "sym:3"]


def twisted(G, H, images, skip, rng):
    """images times a seeded z that is 0 on the subgroup K generated by
    every generator but gens[skip] and constant on each coset aK; for an
    abelian H it still respects every generator but gens[skip]."""
    gens = G.generating_set()
    K = subgroup_closure(G, gens[:skip] + gens[skip + 1:]).elements
    z = {}
    for a in range(G.order):
        coset = frozenset(G.table[a][k] for k in K)
        z.setdefault(coset, 0 if 0 in coset else rng.randrange(H.order))
    return tuple(H.table[images[a]][z[frozenset(G.table[a][k] for k in K)]]
                 for a in range(G.order))


@pytest.mark.parametrize("spec", RESPECTS_GROUPS + ["sym:5"])
def test_generator_verdict_equals_the_full_scan(spec):
    # maps into G itself and into three small groups: homomorphisms spread
    # from seeded generator images, each with two images swapped and, into
    # an abelian group, twisted to break one generator only; and seeded
    # image arrays.  The verdict on generators must be the scan's.
    G = build_group(spec)
    rng = random.Random(f"{SEED}/respects/{spec}")
    k = len(G.generating_set())
    verdicts = set()
    for H in (G, *map(build_group, RESPECTS_TARGETS)):
        homs = [(0,) * G.order]
        for _ in range(6):
            combo = [rng.randrange(H.order) for _ in range(k)]
            images = next(_generator_maps(G, H, [[h] for h in combo]), None)
            if images is not None:
                homs.append(images)
        cases = [tuple(rng.randrange(H.order) for _ in range(G.order))
                 for _ in range(4)]
        for images in homs:
            cases.append(images)
            if G.order > 1:
                cases.append(swapped(images, *rng.sample(range(G.order), 2)))
            if H.is_abelian:
                cases += [twisted(G, H, images, i, rng) for i in range(k)]
        for images in cases:
            got = _respects(images, G, H)
            assert got == respects_loop(images, G.table, H.table), (H, images)
            verdicts.add(got)
    assert verdicts == {True, False}


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


# per group: seeded mutants compared, mutants _acts accepts (a table swap
# off the generator columns leaves everything it reads unchanged)
ACTS_MUTANTS = {"cyclic:2": (120, 50), "sym:3": (120, 11),
                "dihedral:4": (120, 32), "quaternion:8": (120, 24),
                "metacyclic:7:3:2": (120, 39), "sym:4": (120, 41)}


@pytest.mark.parametrize("spec", list(ACTS_MUTANTS))
def test_acts_matches_per_point_loop_on_seeded_row_swaps(spec):
    # the table on itself (associativity), the columns on the columns
    # (a right action) and the lambda rows of the rho structure's brace on
    # the table (conjugation), each with its rows or its table swapped,
    # on the generators and on 0 and the generators
    G = build_group(spec)
    gens = G.generating_set()
    cols = tuple(zip(*G.table))
    lam = _lambda_rows(brace_from_subgroup(rho_structure(G)))
    rng = random.Random(f"{SEED}/acts/{spec}")
    compared = accepted = 0
    for rows, table in ((G.table, G.table), (cols, cols), (lam, G.table)):
        assert _acts(rows, table, gens) and acts_loop(rows, table, gens)
        for _ in range(10):
            cases = ((swap_in_table(rows, rng), table),
                     (rows, swap_in_table(table, rng)))
            for r, t in cases:
                for on in (gens, (0, *gens)):
                    got = _acts(r, t, on)
                    assert got == acts_loop(r, t, on)
                    accepted += got
                    compared += 1
    assert (compared, accepted) == ACTS_MUTANTS[spec]


def test_associativity_acceptance_on_every_order_4_table():
    # an associative table passes Light's test at every g, so on these
    # tables it accepts exactly the associative ones
    accepted = 0
    for t in order_4_tables():
        got = _associative(t)
        assert got == (outcome(associativity_loop, t) is None)
        accepted += got
    assert accepted == 11


# seeded swaps Light's test accepts per group; order 2 has associative ones
LIGHT_ACCEPTS = {spec: 0 for spec in SMALL_GROUPS + ["sym:4", "cyclic:26"]}
LIGHT_ACCEPTS["cyclic:2"] = 12


@pytest.mark.parametrize("spec", list(LIGHT_ACCEPTS))
def test_associativity_acceptance_is_sound_on_seeded_swaps(spec):
    table = build_group(spec).table
    assert _associative(table)
    rng = random.Random(f"{SEED}/light/{spec}")
    accepted = 0
    for _ in range(25):
        t = swap_in_table(table, rng)
        if _associative(t):
            assert outcome(associativity_loop, t) is None
            accepted += 1
    assert accepted == LIGHT_ACCEPTS[spec]


class RawTable:
    """What SkewBrace reads of a group, for a table that need not be one:
    inverse[a] is the first b with a*b = 0, a right inverse."""

    def __init__(self, table):
        self.table = table
        self.order = len(table)
        self.inverse = tuple(row.index(0) for row in table)


# mutated star tables per group; a swap inside a row keeps its 0, so none
# is skipped, although none of them is a group table
BRACE_MUTANTS = {"sym:3": 30, "dihedral:4": 48, "metacyclic:7:3:2": 48,
                 "dicyclic:6": 48}


@pytest.mark.parametrize("spec", list(BRACE_MUTANTS))
def test_brace_relation_errors_match_on_corrupted_tables(spec):
    G = build_group(spec)
    rng = random.Random(f"{SEED}/brace/{spec}")
    failures = compared = 0
    for N in enumerate_hgs(G)[:8]:
        good = brace_from_subgroup(N)
        assert outcome(_check_brace_relation, good) is None
        for g in range(G.order):
            assert _right_relation_at(good, g) == right_relation_loop(good, g)
        for _ in range(6):
            B = SkewBrace(RawTable(swap_in_table(good.star, rng)), G)
            want = outcome(brace_relation_loop, B.star, B.circ, B.star_inverse)
            assert outcome(_check_brace_relation, B) == want
            failures += want is not None
            compared += 1
            for g in range(G.order):
                assert _right_relation_at(B, g) == right_relation_loop(B, g)
    assert compared == BRACE_MUTANTS[spec]
    assert failures > 0


@pytest.fixture
def scanned(monkeypatch):
    """The braces that _brace_relation_scan runs on, recorded as it runs."""
    out, scan = [], braces._brace_relation_scan
    monkeypatch.setattr(braces, "_brace_relation_scan",
                        lambda B: out.append(B) or scan(B))
    return out


# per circ group: order-4 stars compared, those that satisfy the brace
# relation, and those of them accepted on generators (the others are not
# groups with identity 0)
ORDER_4_STARS = {"cyclic:4": (13872, 25, 10), "elemab:2:2": (13872, 47, 16)}


@pytest.mark.parametrize("spec", list(ORDER_4_STARS))
def test_brace_relation_on_every_order_4_star(spec, scanned):
    # every table with identity row 0 and permutation rows, and the two
    # groups of order 4 renamed by each of the 24 p, most of which move
    # their identity off 0
    G = build_group(spec)
    renamed = (relabelled(build_group(h).table, p)
               for h in ORDER_4_STARS
               for p in itertools.permutations(range(4)))
    compared = holds = 0
    for t in itertools.chain(order_4_tables(), renamed):
        B = SkewBrace(RawTable(t), G)
        want = outcome(brace_relation_loop, B.star, B.circ, B.star_inverse)
        assert outcome(_check_brace_relation, B) == want
        holds += want is None
        compared += 1
    fast = compared - len(scanned)
    assert (compared, holds, fast) == ORDER_4_STARS[spec]


@pytest.mark.parametrize("spec", ["sym:3", "cyclic:6"])
def test_brace_relation_on_relabelled_group_stars(spec, scanned):
    # cyclic:6 and sym:3 renamed by each of the 120 p fixing 0 as the star
    # of spec: on group stars the generator check alone decides, so the
    # scan runs only to raise
    G = build_group(spec)
    holds = 0
    for H in (build_group("cyclic:6"), build_group("sym:3")):
        for rest in itertools.permutations(range(1, 6)):
            B = SkewBrace(RawTable(relabelled(H.table, (0, *rest))), G)
            want = outcome(brace_relation_loop, B.star, B.circ, B.star_inverse)
            asked = len(scanned)
            assert outcome(_check_brace_relation, B) == want
            assert (len(scanned) == asked) == (want is None)
            holds += want is None
    assert holds == {"sym:3": 18, "cyclic:6": 14}[spec]


def test_valid_braces_are_accepted_and_two_sided_on_generators(
        catalog_structures, s5_orbit_structures, monkeypatch):
    def refuse(B):
        raise AssertionError("the brace relation was scanned")

    monkeypatch.setattr(braces, "_brace_relation_scan", refuse)
    structures = catalog_structures + s5_orbit_structures
    two_sided = 0
    for N in structures:
        B = brace_from_subgroup(N)
        want = all(right_relation_loop(B, g) for g in range(B.size))
        assert is_two_sided(B) == want
        two_sided += want
    assert (len(structures), two_sided) == (379, 255)


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
# The braid relation from the two action laws


def right_from_left(left, circ, circ_inverse):
    """ybe_map's right table: circ_inv(u) o x o y with u = left[x][y]."""
    n = len(left)
    return tuple(
        tuple(circ[circ[circ_inverse[left[x][y]]][x]][y] for y in range(n))
        for x in range(n)
    )


def ybe_tables(B):
    """ybe_map's (left, right) on B point by point, without its checks."""
    n, star, circ = B.size, B.star, B.circ
    left = tuple(
        tuple(star[B.star_inverse[x]][circ[x][y]] for y in range(n))
        for x in range(n)
    )
    return left, right_from_left(left, circ, B.circ_inverse)


def actions_loop(L, R, circ):
    """Whether sigma_x = L[x] is a left and tau_y: x -> R[x][y] a right
    action of the group circ, over all pairs and points."""
    rng = range(len(L))
    return all(L[0][z] == z and R[z][0] == z for z in rng) and all(
        L[circ[a][b]][z] == L[a][L[b][z]] and R[z][circ[a][b]] == R[R[z][a]][b]
        for a in rng
        for b in rng
        for z in rng
    )


def relabelled(table, p):
    """The table with each index a renamed p[a]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[p[a]][p[b]] = p[ab]
    return tuple(map(tuple, out))


# per group: mutants made (half star-table swaps, half left-row swaps),
# mutants _actions_hold accepts, star and left swaps that keep the braid
# relation
ACTION_MUTANTS = {"cyclic:4": (24, 0, 0, 3), "elemab:2:2": (48, 0, 1, 8),
                  "dihedral:4": (96, 0, 1, 1), "elemab:2:3": (96, 0, 1, 5),
                  "metacyclic:7:3:2": (96, 0, 0, 0)}


@pytest.mark.parametrize("spec", list(ACTION_MUTANTS))
def test_actions_hold_matches_all_pairs_loop_on_seeded_swaps(spec):
    G = build_group(spec)
    rng = random.Random(f"{SEED}/actions/{spec}")
    accepted, braided, compared = 0, [0, 0], 0
    for N in enumerate_hgs(G)[:8]:
        good = brace_from_subgroup(N)
        r = ybe_map(good)
        assert ybe_tables(good) == (r.left, r.right)
        assert _actions_hold(r, G) and actions_loop(r.left, r.right, G.table)
        for _ in range(6):
            star = swap_in_table(good.star, rng)
            left = swap_in_table(r.left, rng)
            mutants = (ybe_tables(SkewBrace(RawTable(star), G)),
                       (left, right_from_left(left, G.table, G.inverse)))
            for kind, (L, R) in enumerate(mutants):
                holds = braid_loop(L, R)
                got = _actions_hold(YbeMap(G.order, L, R), G)
                assert got == actions_loop(L, R, G.table)
                assert holds or not got
                accepted += got
                braided[kind] += holds
                compared += 1
    assert (compared, accepted, *braided) == ACTION_MUTANTS[spec]


@pytest.mark.parametrize("spec,accepted", [("cyclic:4", 2), ("elemab:2:2", 4)])
def test_actions_hold_matches_all_pairs_loop_on_every_left_table(spec,
                                                                 accepted):
    # every left table of order 4 with left[0] = id and permutation rows,
    # right by ybe_map's formula: among them are maps whose sigma is an
    # action and tau is not, and on elemab:2:2 maps that keep both laws at
    # the first generator only
    G = build_group(spec)
    got = 0
    for rows in itertools.product(itertools.permutations(range(4)), repeat=3):
        L = (tuple(range(4)), *rows)
        R = right_from_left(L, G.table, G.inverse)
        holds = _actions_hold(YbeMap(4, L, R), G)
        assert holds == actions_loop(L, R, G.table)
        assert braid_loop(L, R) or not holds
        got += holds
    assert got == accepted


def test_ybe_map_falls_back_to_braid_holds_on_relabelled_stars(monkeypatch):
    # cyclic:6 renamed onto the set of sym:3 by each of the 120 p fixing 0,
    # p = id among them: star and circ are groups and every map is a
    # bijection, but 108 maps break the braid relation, each raising
    # BraidError through braid_holds, and 6 keep it without two actions
    G, C6 = build_group("sym:3"), build_group("cyclic:6")
    fallbacks = []
    braid_holds = YbeMap.braid_holds

    def recorded(r):
        fallbacks.append(braid_holds(r))
        return fallbacks[-1]

    monkeypatch.setattr(YbeMap, "braid_holds", recorded)
    counts = {}
    for rest in itertools.permutations(range(1, 6)):
        B = SkewBrace(RawTable(relabelled(C6.table, (0, *rest))), G)
        L, R = ybe_tables(B)
        holds, acts = braid_loop(L, R), actions_loop(L, R, G.table)
        asked = len(fallbacks)
        try:
            ybe_map(B)
            verdict = None
        except BraidError as exc:
            verdict = str(exc)
        assert verdict == (None if holds else "braid relation fails")
        assert fallbacks[asked:] == ([] if acts else [holds])
        counts[holds, acts] = counts.get((holds, acts), 0) + 1
    assert counts == {(False, False): 108, (True, False): 6, (True, True): 6}


# ---------------------------------------------------------------------------
# Order of the elements of regular groups


def test_cycle_at_0_is_the_order_on_catalog_structures(catalog_structures):
    assert len(catalog_structures) == 376
    for N in catalog_structures:
        for p in N.eta:
            assert _cycle_at_0(p) == _tuple_order(p)


def test_cycle_at_0_stops_on_a_row_that_is_not_a_permutation():
    assert _cycle_at_0((1, 1)) == 0
    assert _cycle_at_0((1, 2, 1)) == 0
    assert _cycle_at_0((1, 2, 0)) == 3


def test_order_and_sign_equal_brute_force_on_six_points():
    identity = tuple(range(6))
    for p in itertools.permutations(identity):
        order, q = 1, p
        while q != identity:
            order, q = order + 1, compose_loop(p, q)
        inversions = sum(p[i] > p[j] for i, j in itertools.combinations(identity, 2))
        assert _tuple_order(p) == order, p
        assert _perm_sign(p) == (-1) ** inversions, p


# sha256 of repr(tuple(build_group(spec).names)), recorded before the cycle
# names and signs were read off one cycle walk
NAME_DIGESTS = {
    "sym:3": "f38d7f9cfec3",
    "sym:4": "3b46a7316eb8",
    "sym:5": "d412ef314bc2",
    "alt:3": "b625a5c1f1c2",
    "alt:4": "212434117c8e",
    "alt:5": "adee2f465a17",
}


def test_cycle_names_of_sym_and_alt_are_unchanged():
    assert build_group("sym:3").names == (
        "e", "(1 2)", "(0 1)", "(0 1 2)", "(0 2 1)", "(0 2)"
    )
    for spec, digest in NAME_DIGESTS.items():
        blob = repr(tuple(build_group(spec).names)).encode()
        assert hashlib.sha256(blob).hexdigest()[:12] == digest, spec


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
