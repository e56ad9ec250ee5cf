"""Published counts as oracles beyond the brute-force range.

The enumeration is checked against theorems, not against another search:

* Kohl, J. Algebra 207 (1998): a cyclic extension of degree p^n, p an odd
  prime, has p^(n-1) Hopf-Galois structures, all of cyclic type;
* Byott, J. Algebra 318 (2007): a cyclic extension of degree 2^n, n >= 3,
  has 2^(n-2) structures of each of the cyclic, dihedral and generalized
  quaternion types (the quaternion type is `dicyclic:2^(n-1)`, as
  `dicyclic:m` has order 2m);
* Byott, J. Pure Appl. Algebra 188 (2004), order pq with p = 1 mod q: a
  cyclic G has 1 structure of cyclic type and 2(q-1) of metacyclic type, a
  metacyclic G has 2 + 2p(q-2) of metacyclic type and p of cyclic type.

The catalog is incomplete at these orders, so each count is taken with a
type filter.  At orders 16 and 27 every other catalog type gives 0.  At
orders 32 and 81 the elementary abelian types are out of reach: the
automorphism search of C2^5 or C3^4 would range over tens of millions of
generator images, and is refused before it starts.

Guarnieri and Vendramin, Math. Comp. 86 (2017), list the skew braces of
small order.  Aut(G) acts on the inventory of G by conjugation, and its
orbits are the classes of skew braces whose circ group is G, so the orbits
over the catalog groups of one order count the skew braces of that order;
those whose structure N is abelian are the braces.  The paper's theorem
says the number of rho-conjugates of N is fixed by its brace B: it is
|G| / |inner_stabilizer(B)|, for every member of the class.
"""

import time

import pytest

from hgslab import (
    UnsupportedOrder,
    automorphisms,
    brace_from_subgroup,
    build_group,
    catalog_specs,
    enumerate_hgs,
    inner_stabilizer,
    parse_spec,
    rho_orbit,
)
from hgslab.cli import main
from hgslab.perms import _conjugate_all, _invert

# (G, type, structures of that type)
PUBLISHED = [
    ("cyclic:27", "cyclic:27", 9),
    ("cyclic:81", "cyclic:81", 27),
    ("cyclic:125", "cyclic:125", 25),
    ("cyclic:16", "cyclic:16", 4),
    ("cyclic:16", "dihedral:8", 4),
    ("cyclic:16", "dicyclic:8", 4),
    ("cyclic:32", "cyclic:32", 8),
    ("cyclic:32", "dihedral:16", 8),
    ("cyclic:32", "dicyclic:16", 8),
    ("cyclic:64", "cyclic:64", 16),
    ("cyclic:64", "dihedral:32", 16),
    ("cyclic:64", "dicyclic:32", 16),
    ("cyclic:128", "dihedral:64", 32),
    ("cyclic:128", "dicyclic:64", 32),
    ("cyclic:256", "cyclic:256", 64),
    ("metacyclic:13:3:3", "metacyclic:13:3:3", 28),
    ("metacyclic:13:3:3", "cyclic:39", 13),
    ("cyclic:39", "metacyclic:13:3:3", 4),
    ("cyclic:39", "cyclic:39", 1),
    ("cyclic:155", "metacyclic:31:5:2", 8),
]

# (G, type) whose automorphism search is refused
OVERSIZED = [
    ("cyclic:81", "product:cyclic:3,cyclic:3,cyclic:3,cyclic:3"),
    ("cyclic:32", "product:cyclic:2,cyclic:2,cyclic:2,cyclic:2,cyclic:2"),
]

# order: (skew braces, of which braces), Guarnieri-Vendramin's table
SKEW_BRACES = {
    1: (1, 1), 2: (1, 1), 3: (1, 1), 4: (4, 4), 5: (1, 1), 6: (6, 2),
    7: (1, 1), 8: (47, 27), 9: (4, 4), 10: (6, 2), 11: (1, 1), 12: (38, 10),
    13: (1, 1), 14: (6, 2), 15: (1, 1), 21: (8, 2),
}


def test_published_counts_of_cyclic_and_order_pq_extensions():
    start = time.perf_counter()
    for g_spec, m_spec, want in PUBLISHED:
        M = parse_spec(m_spec)
        inv = enumerate_hgs(build_group(g_spec), M)
        assert len(inv) == want, (g_spec, m_spec)
        assert {N.type_label for N in inv} == {M}
    assert time.perf_counter() - start < 20


def test_other_catalog_types_give_no_structures_at_orders_16_and_27():
    start = time.perf_counter()
    for g_spec in ("cyclic:16", "cyclic:27"):
        G = build_group(g_spec)
        published = {parse_spec(m) for g, m, _ in PUBLISHED if g == g_spec}
        others = [M for M in catalog_specs(G.order) if M not in published]
        assert len(others) == {16: 4, 27: 2}[G.order]
        for M in others:
            assert len(enumerate_hgs(G, M)) == 0, (g_spec, str(M))
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize("g_spec,m_spec", OVERSIZED)
def test_oversized_automorphism_search_is_refused_early(g_spec, m_spec):
    start = time.perf_counter()
    with pytest.raises(UnsupportedOrder, match="above the limit of 1000000"):
        enumerate_hgs(build_group(g_spec), parse_spec(m_spec))
    assert time.perf_counter() - start < 2


def test_cli_refuses_an_oversized_automorphism_search(capsys):
    g_spec, m_spec = OVERSIZED[0]
    code = main(["hgs", "enumerate", "--group", g_spec, "--type", m_spec])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "automorphism search" in err


def _aut_classes(inv, auts) -> list:
    """The Aut(G)-orbits on an inventory, as lists of its structures, each
    led by its first structure in inventory order."""
    by_key = {N.perms.element_set: N for N in inv}
    pairs = [(phi.images, _invert(phi.images)) for phi in auts]
    seen, classes = set(), []
    for N in inv:
        if N.perms.element_set in seen:
            continue
        keys = {
            frozenset(_conjugate_all(N.perms.elements, phi, phi_inv))
            for phi, phi_inv in pairs
        }
        assert keys <= by_key.keys()
        seen |= keys
        classes.append([N] + [by_key[key] for key in keys - {N.perms.element_set}])
    return classes


def test_skew_brace_census_and_rho_orbit_sizes():
    start = time.perf_counter()
    counts = {}
    for n in SKEW_BRACES:
        skew = braces = 0
        for spec in catalog_specs(n):
            G = build_group(spec)
            inv = enumerate_hgs(G)
            for members in _aut_classes(inv, automorphisms(G)):
                skew += 1
                braces += members[0].is_abelian()
                stab = inner_stabilizer(brace_from_subgroup(members[0]))
                for N in members:
                    assert rho_orbit(N).size * stab.order == n
        counts[n] = (skew, braces)
    assert counts == SKEW_BRACES
    assert sum(skew for skew, _ in counts.values()) == 127
    assert time.perf_counter() - start < 20
