"""Regular subgroups of Perm(G) normalized by the left translations.

Such subgroups classify the Hopf-Galois structures on a Galois extension
with group G, so we call a certified one a structure.  Enumeration follows
Byott's translation, which also covers the separable case: the regular
subgroups of Perm(G/T) of type M normalized by G correspond to the
homomorphisms beta: G -> Hol(M) for which xT -> beta(x)(0) is a bijection,
up to conjugation by Aut(M).  An element lambda(m) . a of Hol(M) is
searched as one id, a . n + m, and no permutation is formed: the search
(groups._generator_maps) backtracks over the images of G's generating set,
spreads each partial choice along G's Cayley graph, and rejects it as soon
as a relation of G fails or two cosets send the base point to the same m.
enumerate_hgs is the case T = {e}.

_structure certifies each element set once per group while a caller holds
the result (a weak per-group memo), so inventories, rho-orbits and abelian
map structures share one object per set; it is handed out again only under
the same type label, and caller-supplied generators never enter it.  Each
structure it certifies is also filed under its probe, its members at the
ids of G's generating set (_probes), so rho finds a live conjugate from
those k members of it (_conjugate_probe, O(k n) work) instead of all n
(O(n^2)).  A structure derived from a regular group
already held, an enumerated or embedded b^-1 . lambda(M) . b or a
rho-conjugate of N's own table that is not live, comes from _relabel: its
members arrive in eta order with their orders, and the generators are
picked only when the memo has no live structure for the set.  Sets from
elsewhere go through PermGroup, which checks their closure.
"""

from __future__ import annotations

import itertools
import weakref
from collections import Counter
from functools import cache
from operator import eq, getitem
from typing import Optional, Sequence

from .errors import InvalidSpec, NotRegular, NotStable, UnknownType, UnsupportedOrder
from .groups import (
    FiniteGroup,
    GroupSpec,
    _cycle_at_0,
    _generator_maps,
    _order_walk,
    automorphisms,
    are_isomorphic,
    build_group,
    catalog_complete,
    catalog_specs,
    subgroup_closure,
)
from .perms import (
    CosetSpace,
    PermGroup,
    _compose,
    _conjugate,
    _conjugate_all,
    _invert,
    _escape,
    _left_translations,
    _tuple_order,
    lambda_image,
    left_translation,
    rho_image,
)


class RegularSubgroup:
    """A certified G-stable regular subgroup of Perm(G).

    eta[a] is the unique member sending 0 to a; this indexing doubles as the
    regularity certificate, and since eta[a] . eta[b] = eta[eta[a][b]] the
    rows of eta are N's Cayley table.
    """

    __slots__ = (
        "group", "perms", "eta", "_type_label", "_lattice", "_orbit", "__weakref__"
    )

    def __init__(self, group: FiniteGroup, perms: PermGroup, eta, type_label=None):
        self.group = group
        self.perms = perms
        self.eta = tuple(eta)
        self._type_label = type_label
        self._lattice = None  # memo of correspondence.realizable_lattice
        self._orbit = None  # orbit record left by rho._stamp

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
    # n sorted permutations with distinct images of 0 are already in eta order
    eta = perms.elements
    for p, q in zip(eta, eta[1:]):
        if p[0] == q[0]:
            raise NotRegular(f"elements {p} and {q} both send 0 to {p[0]}")
    escape = _escape(_left_translations(G), perms.generators, perms.element_set)
    if escape is not None:
        q, p = escape
        raise NotStable(
            f"conjugate of {p} by translation of g={q[0]} leaves the set"
        )
    return RegularSubgroup(G, perms, eta, type_label=type_label)


def _live(G: FiniteGroup) -> weakref.WeakValueDictionary:
    """{element set: structure} for the structures on G that _structure
    certified and a caller still holds."""
    return G._memo("structures", weakref.WeakValueDictionary)


def _probes(G: FiniteGroup) -> weakref.WeakValueDictionary:
    """{probe: structure} for the structures _structure certified on G and a
    caller still holds, each filed under its _probe when certified; two
    structures may share a probe, and the later one is filed."""
    return G._memo("probes", weakref.WeakValueDictionary)


def _probe(N: RegularSubgroup) -> tuple:
    """N's members at the ids of G's generating set, a key of k members
    (k = |generating set|) for looking N up among the live structures."""
    return tuple(map(N.eta.__getitem__, N.group.generating_set()))


def _conjugate_probe(N: RegularSubgroup, b, binv) -> tuple:
    """The _probe of b^-1 . N . b, given binv = b^-1: _relabel_members of N's
    table at the ids _probe reads, so the two keys always agree."""
    return tuple(_relabel_members(N.eta, b, binv, N.group.generating_set()))


def _structure(G: FiniteGroup, key, perms, type_label=None) -> RegularSubgroup:
    """The structure on G with element set key: the live one if its label
    still equals type_label (type_of may have filled it in), else a fresh
    one certified from perms(), which replaces it in the memo and is filed
    under its probe."""
    live = _live(G)
    N = live.get(key)
    if N is None or N._type_label != type_label:
        N = live[key] = certify(G, perms(), type_label=type_label)
        _probes(G)[_probe(N)] = N
    return N


def _relabel_members(rows: Sequence[tuple], b, binv, ids) -> list:
    """The members i in ids of b^-1 . rows . b, given binv = b^-1: member i,
    b^-1 . rows[b(i) . b(0)^-1] . b, is the one sending 0 to i.  One scan of
    a row finds b(0)^-1, then each id costs one member of n points, so k ids
    cost O(k n) against a whole relabel's O(n^2)."""
    c = rows[b[0]].index(0)  # b(0)^-1
    return _conjugate_all((rows[rows[b[i]][c]] for i in ids), binv, b)


def _relabel(rows: Sequence[tuple], orders, b: Sequence[int]) -> tuple:
    """(element set, perms) of b^-1 . rows . b: rows is a regular group's
    table (rows[m][0] = m), orders() gives its element orders and b is a
    bijection onto its points.  Its members come from _relabel_members in
    eta order; perms() picks from those orders what PermGroup would."""
    if sorted(b) != list(range(len(rows))):
        raise NotRegular("the base point map is not a bijection onto the points")
    eta = _relabel_members(rows, b, _invert(b), range(len(rows)))

    def perms() -> PermGroup:
        order = orders().__getitem__
        c = rows[b[0]].index(0)  # b(0)^-1
        gens, _ = _order_walk(eta, [order(rows[x][c]) for x in b])
        return PermGroup._generated_by(eta, [eta[g] for g in gens or (0,)])

    return frozenset(eta), perms


def opposite(N: RegularSubgroup) -> RegularSubgroup:
    """The centralizer of N in Perm(G), certified as a structure.

    It is made of the columns of N's table eta: the map c_m: x -> eta[x][m]
    commutes with every eta[a], for eta[a][eta[x][m]] = eta[eta[a][x]][m],
    and the n columns are distinct, so they are the whole centralizer of
    the regular N, a group, and no closure pass runs.  c_m[0] = m and
    c_m . c_k = c_{eta[k][m]}, so the columns come sorted, each c_m has the
    order of m, and their table is eta transposed, whose subgroups are
    eta's: the walk of PermGroup's table path picks the same ids on eta.
    certify still checks order, regularity and stability.
    """
    eta = N.eta
    cols = tuple(zip(*eta))
    gens, _ = _order_walk(eta, list(map(_cycle_at_0, eta)))
    gens = [cols[g] for g in gens or (0,)]
    return certify(N.group, PermGroup._generated_by(cols, gens))


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
    return FiniteGroup(N.eta, names=N.group.names, check=False)


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


def _aut_ids(M: FiniteGroup) -> tuple:
    """(auts, index, inverse, orders): automorphisms(M) as image tuples,
    whose positions are their ids; {images: id}; the id of each inverse;
    the order of each."""

    def compute():
        auts = tuple(a.images for a in automorphisms(M))
        index = {a: i for i, a in enumerate(auts)}
        inverse = [index[_invert(a)] for a in auts]
        return auts, index, inverse, [*map(_tuple_order, auts)]

    return M._memo("aut_ids", compute)


def _hol_product(M: FiniteGroup):
    """Hol(M)'s product on the ids a . n + m of lambda(m) . auts[a]:
    (m, a)(m', a') = (m . a(m'), a a'), one table lookup, one point lookup
    and the id of a a', memoized per a while the returned function lives."""
    auts, index, _, _ = _aut_ids(M)
    n, table, products = M.order, M.table, [{} for _ in auts]

    def mul(u: int, v: int) -> int:
        (a, m), (b, x) = divmod(u, n), divmod(v, n)
        ab = products[a].get(b)
        if ab is None:
            ab = products[a][b] = index[_compose(auts[a], auts[b])]
        return ab * n + table[m][auts[a][x]]

    return mul


def _hol_pools(M: FiniteGroup, shapes) -> dict:
    """{shape: {a: ms}}: the pairs (m, a), a an id of _aut_ids, for which
    lambda(m) . auts[a] has (order, fixed points) in shapes; none is formed.

    lambda(m) . a fixes x exactly when m = x . a(x)^-1, so one pass over the
    points counts the fixed points of all n pairs with one a.  Its k-th
    power, k the order of a, is lambda(c) for c = m . a(m) ... a^(k-1)(m),
    its image of 0, so its order is k times that of c.
    """
    table, inverse, orders = M.table, M.inverse, M.element_orders
    auts, _, _, aut_orders = _aut_ids(M)
    pools: dict = {}
    for i, (a, k) in enumerate(zip(auts, aut_orders)):
        if all(order % k for order, _ in shapes):
            continue
        fixed = Counter(map(getitem, table, map(inverse.__getitem__, a)))
        walk = range(len(a))  # lambda(m) . a sends walk[m] to m . a(walk[m])
        for _ in range(k - 1):
            walk = tuple(map(getitem, table, map(a.__getitem__, walk)))
        for m, c in enumerate(walk):
            shape = (k * orders[c], fixed.get(m, 0))
            if shape in shapes:
                pools.setdefault(shape, {}).setdefault(i, []).append(m)
    return pools


def _orbit_representatives(M: FiniteGroup, pool: dict, stabilizer: Sequence[int]):
    """One id a . n + m of each orbit of the pool {a: ms} under conjugation
    by the automorphism ids in stabilizer, a group, with the ids fixing it:
    b sends lambda(m) . a to lambda(b(m)) . (b a b^-1), so one pass over the
    stabilizer takes the class of a out of the pool and leaves its
    centralizer C, whose orbits on the ms are walked by point lookups."""
    auts, index, inverse, _ = _aut_ids(M)
    left = set(pool)
    for a, ms in pool.items():
        if a in left:
            centralizer = []
            for b in stabilizer:
                c = index[_conjugate(auts[a], auts[b], auts[inverse[b]])]
                left.discard(c)
                if c == a:
                    centralizer.append(b)
            rest = set(ms)
            for m in ms:
                if m in rest:
                    rest.difference_update(auts[b][m] for b in centralizer)
                    yield a * M.order + m, [b for b in centralizer if auts[b][m] == m]


def _regular_embeddings(cs: CosetSpace, M: FiniteGroup):
    """The homomorphisms beta: G -> Hol(M) for which xT -> beta(x)(0) is a
    bijection G/T -> M, one per Aut(M)-class, as tuples of the ids a . n + m
    of beta(x) = lambda(m) . a (so beta(x)(0) = beta(x) % n): the search of
    _generator_maps on _hol_product, with the owner test on G/T.

    beta(g) is conjugate to g's translation on G/T, whose order and fixed
    points pick its pool.  Conjugate embeddings give one subgroup, so each
    image is taken up to the automorphisms fixing the earlier ones (which
    the orbit walk that chose them gives), and such a conjugation moves it
    to its representative without moving them: each class is reached once.
    A shape's pool and first-level classes depend only on M: kept on M.
    """
    lts = [left_translation(cs, g) for g in cs.group.generating_set()]
    shapes = [(_tuple_order(lt), sum(map(eq, lt, range(cs.degree)))) for lt in lts]
    pools, first = M._memo("hol_pools", dict), M._memo("hol_first", dict)
    if missing := set(shapes).difference(pools):
        pools.update(dict.fromkeys(missing, {}) | _hol_pools(M, missing))
    stabilizers = [range(len(_aut_ids(M)[0]))] + [None] * len(shapes)

    def level(k: int):
        reps = _orbit_representatives(M, pools[shapes[k]], stabilizers[k])
        if k == 0:
            reps = first.get(shapes[0]) or first.setdefault(shapes[0], list(reps))
        for c, fixing in reps:
            stabilizers[k + 1] = fixing
            yield c

    return _generator_maps(cs.group, _hol_product(M), level,
                           owner=(cs.degree, cs.coset_of))


def _embedding_sets(cs: CosetSpace, specs: Sequence[GroupSpec]) -> dict:
    """{element set: (spec, perms)} from _relabel over the regular subgroups
    of Perm(G/T) that the translations of G normalize, of a type in specs;
    b is the m of each coset representative's image."""
    found: dict = {}
    for spec in specs:
        M = build_group(spec)
        for beta in _regular_embeddings(cs, M):
            b = [beta[r] % M.order for r in cs.representatives]
            key, perms = _relabel(M.table, lambda M=M: M.element_orders, b)
            found.setdefault(key, (spec, perms))
    return found


def enumerate_hgs(
    G: FiniteGroup, type_filter: Optional[GroupSpec] = None
) -> HgsInventory:
    """All G-stable regular subgroups of Perm(G), optionally of one type.

    _embedding_sets over the cosets of the trivial subgroup, which are the
    elements of G, finds the element sets; each one is certified.
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

    found = _embedding_sets(CosetSpace(G, subgroup_closure(G, ())), specs)
    structures = [_structure(G, key, perms, spec)
                  for key, (spec, perms) in found.items()]
    return HgsInventory(G, structures, complete)


# ---------------------------------------------------------------------------
# Brute force oracle


BRUTE_FORCE_LIMIT = 8


@cache
def _regular_scan(d: int) -> tuple:
    """((element set, spec), ...) of every regular subgroup of Perm(d), the
    spec being the first catalog type whose scan met the set, in the order
    met; memoized per degree.

    Every regular subgroup equals b . lambda_M . b^-1 for its own abstract
    type M and the bijection b(m) = eta_m[0], which fixes 0; so scanning
    the bijections with b(0) = 0 over all catalog types of degree d is
    exhaustive.
    """
    found: dict = {}
    for spec in catalog_specs(d):
        table = build_group(spec).table
        for rest in itertools.permutations(range(1, d)):
            b = (0,) + rest
            found.setdefault(frozenset(_conjugate_all(table, b, _invert(b))), spec)
    return tuple(found.items())


def stable_regular_subgroups(lgens: Sequence[tuple]) -> dict:
    """Every regular subgroup of Perm(d) normalized by the permutations lgens.

    d = len(lgens[0]).  Returns {element set: catalog spec} in the order of
    _regular_scan, the spec being the first type whose scan met the set.
    The scan of each degree is made once and kept; only the stability
    filter runs per call.  Only sensible for d <= 8.
    """
    d = len(lgens[0])
    scan = _regular_scan(d)
    pairs = [(q, _invert(q)) for q in lgens]
    return {key: spec for key, spec in scan if _escape(pairs, key, key) is None}


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
