"""Regular subgroups of Perm(G) normalized by the left translations.

Such subgroups classify the Hopf-Galois structures on a Galois extension
with group G, so we call a certified one a structure.  Enumeration follows
Byott's translation: structures of type M on G correspond to regular
embeddings beta: G -> Hol(M), two embeddings giving the same structure
exactly when they are conjugate under Aut(M).  An element of Hol(M) is the
image tuple lambda(m) . a with a in Aut(M), and it sends the base point to
m, so an embedding is regular exactly when its base-point images are
distinct.  The search backtracks over the images of G's generating set,
spreads each partial choice along G's Cayley graph, and rejects it as soon
as a relation of G fails or a base-point image repeats.
"""

from __future__ import annotations

from typing import Optional, Sequence

import itertools

from .errors import InvalidSpec, NotRegular, NotStable, UnknownType, UnsupportedOrder
from .groups import (
    FiniteGroup,
    GroupSpec,
    automorphisms,
    are_isomorphic,
    build_group,
    catalog_complete,
    catalog_specs,
)
from .perms import (
    PermGroup,
    _compose,
    _conjugate,
    _conjugate_all,
    _invert,
    _escape,
    _tuple_order,
    lambda_image,
    rho_image,
)


class RegularSubgroup:
    """A certified G-stable regular subgroup of Perm(G).

    eta[a] is the unique member sending 0 to a; this indexing doubles as the
    regularity certificate, and since eta[a] . eta[b] = eta[eta[a][b]] the
    rows of eta are N's Cayley table.
    """

    __slots__ = ("group", "perms", "eta", "_type_label", "_lattice")

    def __init__(self, group: FiniteGroup, perms: PermGroup, eta, type_label=None):
        self.group = group
        self.perms = perms
        self.eta = tuple(eta)
        self._type_label = type_label
        self._lattice = None  # memo of correspondence.realizable_lattice

    @property
    def order(self) -> int:
        return self.perms.order

    @property
    def type_label(self) -> Optional[GroupSpec]:
        return self._type_label

    def canonical_key(self) -> tuple:
        return self.perms.canonical_key()

    def canonical_hash(self) -> str:
        return self.perms.canonical_hash()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RegularSubgroup)
            and self.group is other.group
            and self.perms.element_set == other.perms.element_set
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.perms.element_set))

    def __repr__(self) -> str:
        label = str(self._type_label) if self._type_label else "?"
        return f"RegularSubgroup(order={self.order}, type={label})"

    def is_abelian(self) -> bool:
        return self.perms.is_abelian()

    def to_json(self) -> dict:
        out = {
            "generators": [list(p) for p in self.perms.generators],
            "order": self.order,
            "canonical_hash": self.canonical_hash(),
        }
        out["type"] = str(self._type_label) if self._type_label else None
        return out


class HgsInventory:
    """All structures found on a group, sorted canonically."""

    __slots__ = ("group", "structures", "complete")

    def __init__(self, group: FiniteGroup, structures, complete: bool):
        self.group = group
        self.structures = tuple(
            sorted(structures, key=lambda s: s.canonical_key())
        )
        self.complete = complete

    def __len__(self) -> int:
        return len(self.structures)

    def __iter__(self):
        return iter(self.structures)

    def __getitem__(self, k: int) -> RegularSubgroup:
        return self.structures[k]

    def canonical_keys(self) -> set:
        return {s.canonical_key() for s in self.structures}

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.inventory/1",
            "group": str(self.group.spec) if self.group.spec else None,
            "order": self.group.order,
            "complete": self.complete,
            "count": len(self.structures),
            "structures": [s.to_json() for s in self.structures],
        }


# ---------------------------------------------------------------------------
# Certification


def certify(
    G: FiniteGroup,
    perms: PermGroup,
    type_label: Optional[GroupSpec] = None,
) -> RegularSubgroup:
    """Validate order, regularity and stability, and build the eta index.

    Stability means conjugation by every left translation maps the subgroup
    into itself.  Checking the generators of the subgroup suffices because
    conjugation by a fixed lambda(g) is an automorphism of Perm(G); checking
    lambda of G's generators suffices because lambda is a homomorphism and a
    map of the finite subgroup into itself is a bijection, so the
    translations that normalize it form a subgroup.
    """
    n = G.order
    if perms.base != n:
        raise NotRegular(f"base {perms.base} does not match group order {n}")
    if perms.order != n:
        raise NotRegular(f"order {perms.order}, expected {n}")
    eta: list = [None] * n
    for p in perms.elements:
        a = p[0]
        if eta[a] is not None:
            raise NotRegular(f"elements {eta[a]} and {p} both send 0 to {a}")
        eta[a] = p
    # eta is filled exactly when the orbit of 0 is everything
    lgens = (G.table[g] for g in G.generating_set())
    escape = _escape(lgens, perms.generators, perms.element_set)
    if escape is not None:
        q, p = escape
        raise NotStable(
            f"conjugate of {p} by translation of g={q[0]} leaves the set"
        )
    return RegularSubgroup(G, perms, eta, type_label=type_label)


def opposite(N: RegularSubgroup) -> RegularSubgroup:
    """The centralizer of N in Perm(G), certified as a structure.

    It is made of the columns of N's table eta: the map x -> eta[x][m]
    commutes with every eta[a], for eta[a][eta[x][m]] = eta[eta[a][x]][m],
    and the n columns are distinct, so they are the whole centralizer of
    the regular N.
    """
    return certify(N.group, PermGroup(zip(*N.eta)))


def lambda_structure(G: FiniteGroup) -> RegularSubgroup:
    return certify(G, lambda_image(G))


def rho_structure(G: FiniteGroup) -> RegularSubgroup:
    return certify(G, rho_image(G))


# ---------------------------------------------------------------------------
# Type identification


def structure_group(N: RegularSubgroup) -> FiniteGroup:
    """The abstract group carried by the eta indexing of a structure.

    Its table is eta itself: eta_a . eta_b = eta_{eta_a[b]}.
    """
    return FiniteGroup(N.eta, check=False)


def _catalog_type(M: FiniteGroup) -> Optional[GroupSpec]:
    """The first catalog spec whose group is isomorphic to M, or None."""
    for spec in catalog_specs(M.order):
        if are_isomorphic(build_group(spec), M) is not None:
            return spec
    return None


def type_of(N: RegularSubgroup) -> GroupSpec:
    """Catalog spec isomorphic to N; raises UnknownType outside the catalog."""
    if N._type_label is None:
        N._type_label = _catalog_type(structure_group(N))
    if N._type_label is None:
        raise UnknownType(
            f"no catalog group of order {N.order} is isomorphic to this subgroup"
        )
    return N._type_label


# ---------------------------------------------------------------------------
# Enumeration by generator images into Hol(M)


def _fpf_by_order(M: FiniteGroup) -> dict:
    """Fixed-point-free elements lambda(m) . a of Hol(M), keyed by order.

    Every non-identity member of a regular subgroup moves every point, so
    these are the only images a non-identity element of G can receive.
    """
    n = M.order
    pools: dict = {}
    for aut in automorphisms(M):
        for m in range(1, n):
            p = _compose(M.table[m], aut.images)
            if all(px != x for x, px in enumerate(p)):
                pools.setdefault(_tuple_order(p), []).append(p)
    return pools


def _orbit_representatives(pool: Sequence[tuple], auts: Sequence[tuple]) -> list:
    """One member of each orbit of pool under conjugation by the group auts,
    given as (a, a^-1) pairs."""
    left = set(pool)
    reps = []
    for p in pool:
        if p in left:
            reps.append(p)
            left.difference_update(_conjugate(p, a, ai) for a, ai in auts)
    return reps


def _close_along_cayley_graph(
    G: FiniteGroup, gens: Sequence[int], images: Sequence[tuple]
) -> Optional[list]:
    """The map x -> beta(x) on <gens> with beta(gens[k]) = images[k], or None.

    beta is spread along the Cayley graph by beta(x * g) = beta(x) . beta(g).
    The choice dies when an element is reached with two different images (a
    relation of G fails) or when two elements send the base point to the same
    place (the image is not semiregular).
    """
    table = G.table
    ident = tuple(range(G.order))
    beta: list = [None] * G.order
    beta[0] = ident
    hit = [False] * G.order
    hit[0] = True
    edges = list(zip(gens, images))
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            bx, row = beta[x], table[x]
            for g, c in edges:
                q = _compose(bx, c)
                y = row[g]
                by = beta[y]
                if by is None:
                    if hit[q[0]]:
                        return None
                    hit[q[0]] = True
                    beta[y] = q
                    nxt.append(y)
                elif by != q:
                    return None
        frontier = nxt
    return beta


def _regular_embeddings(G: FiniteGroup, M: FiniteGroup):
    """Image lists of regular embeddings G -> Hol(M), one per Aut(M)-class.

    Two embeddings conjugate under Aut(M) give the same structure, so each
    generator image is taken only up to conjugation by the automorphisms of
    M that fix the images chosen before it; the first generator is thus taken
    up to Aut(M)-conjugacy.  Conjugating by such an automorphism moves the
    next image to its representative without moving the earlier ones, so
    every class is reached, and two representatives never share a class.
    """
    gens = G.generating_set()
    orders = G.element_orders
    pools = _fpf_by_order(M)

    def search(beta, images, auts):
        i = len(images)
        if i == len(gens):
            yield beta
            return
        pool = pools.get(orders[gens[i]], ())
        for c in _orbit_representatives(pool, auts):
            chosen = images + [c]
            closed = _close_along_cayley_graph(G, gens[: i + 1], chosen)
            if closed is not None:
                fixing = [(a, ai) for a, ai in auts if _conjugate(c, a, ai) == c]
                yield from search(closed, chosen, fixing)

    ident = tuple(range(G.order))
    auts = [(a.images, _invert(a.images)) for a in automorphisms(M)]
    yield from search([ident], [], auts)


def _structure_from_embedding(
    G: FiniteGroup, M: FiniteGroup, beta_images: Sequence[tuple]
) -> frozenset:
    """Element set of the structure behind an embedding.

    beta_images[g] is a permutation of M; b(g) = beta(g)[0] must be a
    bijection G -> M, and the structure is a . lambda_M(mu) . a^-1 over all
    mu with a = b^-1.
    """
    n = G.order
    b = [beta_images[g][0] for g in range(n)]
    if len(set(b)) != n:
        raise NotRegular("embedding image is not regular at the base point")
    a = [0] * n
    for g, m in enumerate(b):
        a[m] = g
    return frozenset(tuple(a[row[bx]] for bx in b) for row in M.table)


def enumerate_hgs(
    G: FiniteGroup, type_filter: Optional[GroupSpec] = None
) -> HgsInventory:
    """All G-stable regular subgroups of Perm(G), optionally of one type.

    For each type M the regular embeddings G -> Hol(M) are enumerated up to
    Aut(M)-conjugacy (see _regular_embeddings), mapped to structures by
    _structure_from_embedding, deduplicated by element set and certified.
    Requires a catalog-complete order unless a type filter narrows the
    search; the completeness flag on the result reflects that.
    """
    n = G.order
    if type_filter is None:
        if not catalog_complete(n):
            raise UnsupportedOrder(
                f"catalog is incomplete for order {n}; pass a type filter"
            )
        specs = catalog_specs(n)
        complete = True
    else:
        M = build_group(type_filter)
        if M.order != n:
            raise InvalidSpec(
                f"type filter has order {M.order}, the group has order {n}"
            )
        specs = [_catalog_type(M) or type_filter]
        complete = False

    found: dict = {}
    for spec in specs:
        M = build_group(spec)
        for beta in _regular_embeddings(G, M):
            found.setdefault(_structure_from_embedding(G, M, beta), spec)
    structures = []
    for key, spec in found.items():
        pg = PermGroup(key)
        structures.append(certify(G, pg, type_label=spec))
    return HgsInventory(G, structures, complete)


# ---------------------------------------------------------------------------
# Brute force oracle


BRUTE_FORCE_LIMIT = 8


def stable_regular_subgroups(lgens: Sequence[tuple]) -> dict:
    """Every regular subgroup of Perm(d) normalized by the permutations lgens.

    d = len(lgens[0]).  Every regular subgroup equals b . lambda_M . b^-1 for
    its own abstract type M and the bijection b(m) = eta_m[0], which fixes
    0; so scanning the bijections with b(0) = 0 over all catalog types of
    degree d is exhaustive.  Returns {element set: catalog spec}, the spec
    being the first type whose scan met the set.  Only sensible for d <= 8.
    """
    d = len(lgens[0])
    found: dict = {}
    seen: set = set()
    for spec in catalog_specs(d):
        table = build_group(spec).table
        for rest in itertools.permutations(range(1, d)):
            b = (0,) + rest
            key = frozenset(_conjugate_all(table, b, _invert(b)))
            if key not in seen:
                seen.add(key)
                if _escape(lgens, key, key) is None:
                    found[key] = spec
    return found


def brute_force_inventory(G: FiniteGroup) -> HgsInventory:
    """Inventory by the bijection scan of stable_regular_subgroups over the
    left translations of G's generators."""
    n = G.order
    if n > BRUTE_FORCE_LIMIT:
        raise UnsupportedOrder(
            f"brute force inventory is capped at order {BRUTE_FORCE_LIMIT}"
        )
    lgens = [G.table[g] for g in G.generating_set()] or [G.table[0]]
    structures = [
        certify(G, PermGroup(key), type_label=spec)
        for key, spec in stable_regular_subgroups(lgens).items()
    ]
    return HgsInventory(G, structures, complete=True)
