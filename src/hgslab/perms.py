"""Permutations of group elements and permutation subgroups.

A permutation is its image tuple: p[x] is the image of x, and there is no
wrapper class (the former GPerm is gone).  Composition is function
composition, _compose(p, q)[x] = p[q[x]].  The left translation lambda(g)
sends x to g*x and the right translation rho(g) sends x to x*g^-1, so both
maps g -> lambda(g), g -> rho(g) are homomorphisms and their images
commute elementwise.  lambda(g) is row g of the Cayley table and rho(g) is
column g^-1, read from a column table built once per group.

Products are row gathers: _compose(p, q) is itemgetter(*q)(p), which reads
all n images at C level instead of looping over the points in Python.
itemgetter with a single index returns a scalar, not a 1-tuple, so images
of length 0 or 1 take a plain generator instead.  A conjugation is two
gathers, q . p . q^-1 = q . (p . q^-1), with the gather by q^-1 built once
per conjugator (_conjugate_all).

A regular set of permutations is closed as its own Cayley table, by the
id kernels groups._order_walk and groups._acts (_greedy_generators); a set
inside the holomorph is decided at k+1 points instead
(constructions._holomorph_group).
_greedy_close composes permutations; it is kept for sets without such a
table and for generated_perm_group, under the cap of 10 * b^2 elements.
The one stability check is _escape: the first conjugate q . p . q^-1 that
leaves a set, which certify reports and every other caller reads as a
verdict.
"""

from __future__ import annotations

import hashlib
from math import lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import ClosureCapExceeded, InvalidSpec
from .groups import (
    FiniteGroup,
    Subgroup,
    _acts,
    _check_id,
    _columns,
    _cycle_at_0,
    _cycles,
    _greedy_join,
    _order_walk,
    _respects,
)


def _compose(p: tuple, q: tuple) -> tuple:
    if len(q) <= 1:
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def _invert(p: tuple) -> tuple:
    out = [0] * len(p)
    for x, i in enumerate(p):
        out[i] = x
    return tuple(out)


def _conjugate(p: tuple, q: tuple, qinv: tuple) -> tuple:
    """q . p . q^-1, given qinv = q^-1."""
    return _conjugate_all((p,), q, qinv)[0]


def _conjugate_all(elements: Iterable[tuple], q: tuple, qinv: tuple) -> list:
    """q . p . q^-1 for every p in elements, given qinv = q^-1.

    The gather by qinv is built once; on at most one point every
    permutation is the identity, and so is every conjugate.
    """
    if len(q) <= 1:
        return [tuple(p) for p in elements]
    at_qinv = itemgetter(*qinv)
    return [itemgetter(*at_qinv(p))(q) for p in elements]


def _escape(conjugators: Iterable[tuple], probes, members) -> Optional[tuple]:
    """The first (q, p) whose conjugate q . p . q^-1 leaves members, or None.

    Conjugators come as (q, q^-1) pairs and are walked in order, the probes
    in order for each of them; probes must be a sequence or a set, as it is
    read twice per conjugator.  members is anything that answers `in`: a
    set, or a structure, which reads its eta table.
    """
    for q, qinv in conjugators:
        for p, c in zip(probes, _conjugate_all(probes, q, qinv)):
            if c not in members:
                return q, p
    return None


# ---------------------------------------------------------------------------
# Permutation subgroups


class PermGroup:
    """A finite set of permutations closed under composition; generators
    from the caller are checked as the greedy picks are (_generated_by
    takes generators a caller has proven)."""

    __slots__ = ("base", "elements", "generators", "element_set", "_hash")

    def __init__(self, elements: Iterable[tuple], generators=()):
        self._store(elements)
        self.generators = _greedy_generators(self.elements, self.element_set,
                                             tuple(map(tuple, generators)))

    @classmethod
    def _generated_by(cls, elements: Iterable[tuple], generators) -> "PermGroup":
        P = cls.__new__(cls)
        P._store(elements)
        P.generators = tuple(generators)
        return P

    def _store(self, elements: Iterable[tuple]) -> None:
        elems = tuple(sorted(elements))
        if not elems:
            raise InvalidSpec("a permutation group needs elements")
        if len(set(map(len, elems))) > 1:
            raise InvalidSpec("the permutations have different lengths")
        self.base = len(elems[0])
        self.elements = elems
        self.element_set = frozenset(elems)
        self._hash = None  # memo of canonical_hash

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.element_set

    def __eq__(self, other) -> bool:
        return isinstance(other, PermGroup) and self.element_set == other.element_set

    def __hash__(self) -> int:
        return hash(self.element_set)

    def __repr__(self) -> str:
        return f"PermGroup(base={self.base}, order={self.order})"

    def canonical_key(self) -> tuple:
        """Sorted image tuples; the canonical form for dedup and hashing."""
        return self.elements

    def canonical_hash(self) -> str:
        if self._hash is None:
            blob = repr(self.canonical_key()).encode()
            self._hash = hashlib.sha256(blob).hexdigest()[:16]
        return self._hash

    def orbit(self, x: int) -> tuple:
        return tuple(sorted({p[x] for p in self.elements}))

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.base

    def is_regular(self) -> bool:
        return self.order == self.base and self.is_transitive()

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "order": self.order,
            "generators": [list(p) for p in self.generators],
            "elements": [list(p) for p in self.elements],
        }


def _greedy_generators(elems: Sequence[tuple], members: frozenset,
                       given: tuple = ()) -> tuple:
    """Generators of a closed permutation set: the given members, else the
    candidates by decreasing order, each one not reached yet.

    n sorted permutations of n points with elems[a][0] == a are, if closed,
    regular with Cayley table a*b = elems[a][b], and the order of elems[a]
    is its cycle length at 0.  They are closed exactly when elems[0] is the
    identity, the picks reach every id in that table and _acts holds at the
    picks: the g passing _acts (elems[y] . elems[g] == elems[y*g] for all y)
    hold 0 and are closed under the table's product (read the law at 0),
    and every id is a product of picks.  The members are then permutations
    if each walk from 0 comes back (_cycle_at_0 is not 0): p^k fixes 0 for
    k that length, and the identity is the only member fixing 0.  Given
    generators are walked in their order instead.  _greedy_close closes
    other sets, once each member is checked to be a permutation.
    """
    if not members.issuperset(given):
        raise InvalidSpec("a given generator is not a member of the set")
    n = len(elems[0])
    if elems == (tuple(range(n)),):
        return given or elems
    if len(elems) == n and all(p[0] == a for a, p in enumerate(elems)):
        orders = list(map(_cycle_at_0, elems))
        if elems[0] == tuple(range(n)) and all(orders):
            gens, reached = (_greedy_join(elems, [p[0] for p in given]) if given
                             else _order_walk(elems, orders))
            if len(reached) == n and _acts(elems, elems, gens):
                return given or tuple(elems[g] for g in gens)
    else:
        _check_permutations(elems, n)
        candidates = given or sorted(elems, key=lambda q: (-_tuple_order(q), q))
        try:
            gens, reached = _greedy_close(candidates, len(members))
        except ClosureCapExceeded:
            reached = None
        if reached == members:
            return given or tuple(gens)
    raise InvalidSpec("set is not closed under composition")


def _check_permutations(perms: Iterable[tuple], b: int) -> None:
    """Raise InvalidSpec unless every p in perms is a permutation of 0..b-1."""
    ident = list(range(b))
    for p in perms:
        if sorted(p) != ident:
            raise InvalidSpec(f"not a permutation of 0..{b - 1}: {p}")


def _greedy_close(candidates: Sequence[tuple], limit: int) -> tuple:
    """(generators, reached): the closure of candidates, generators picked
    greedily from them in order.

    Each candidate not reached yet becomes a generator, and the reached set
    is closed under right multiplication by the generators: old elements
    need only the new one, new elements all of them.  Candidates are closed
    under composition exactly when they are the reached set.  Raises
    ClosureCapExceeded past limit elements; O(r k) products for r reached
    elements and k picks.
    """
    have = {tuple(range(len(candidates[0])))}
    gens: list = []
    for p in candidates:
        if p in have:
            continue
        gens.append(p)
        pending = [(x, (p,)) for x in have]
        while pending:
            x, by = pending.pop()
            for g in by:
                y = _compose(x, g)
                if y not in have:
                    if len(have) >= limit:
                        raise ClosureCapExceeded(
                            f"closure exceeded cap of {limit} elements"
                        )
                    have.add(y)
                    pending.append((y, gens))
    return gens, have


def _tuple_order(images: tuple) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    return lcm(*map(len, _cycles(images)))


def generated_perm_group(gens: Sequence[Sequence[int]]) -> PermGroup:
    """Close a generator list under composition.

    Every generator must be a permutation of 0..b-1, b being the length of
    the first.  The closure aborts with ClosureCapExceeded once it exceeds
    10 * b^2 elements; a structure on b points has b.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        raise InvalidSpec("need at least one generator")
    b = len(gens[0])
    _check_permutations(gens, b)
    _, reached = _greedy_close(gens, 10 * b * b)
    return PermGroup._generated_by(reached, gens)


# ---------------------------------------------------------------------------
# Translations


def lambda_embed(G: FiniteGroup, g: int) -> tuple:
    """Left translation x -> g*x; this is row g of the Cayley table."""
    _check_id(G, g)
    return G.table[g]


def _left_translations(G: FiniteGroup) -> list:
    """(lambda(g), lambda(g^-1)) for g in G's generating set: the conjugator
    pairs for _escape that stand for every left translation."""
    return [(G.table[g], G.table[G.inverse[g]]) for g in G.generating_set()]


def rho_embed(G: FiniteGroup, g: int) -> tuple:
    """Right translation x -> x*g^-1; this is column g^-1 of the table."""
    _check_id(G, g)
    return _columns(G)[G.inverse[g]]


def lambda_image(G: FiniteGroup) -> PermGroup:
    gens = [lambda_embed(G, g) for g in G.generating_set() or (0,)]
    return PermGroup._generated_by(G.table, gens)


def rho_image(G: FiniteGroup) -> PermGroup:
    gens = [rho_embed(G, g) for g in G.generating_set() or (0,)]
    return PermGroup._generated_by(_columns(G), gens)


# ---------------------------------------------------------------------------
# Coset spaces


class CosetSpace:
    """Left cosets of a subgroup, the coset of the identity first."""

    __slots__ = ("group", "subgroup", "cosets", "coset_of", "representatives")

    def __init__(self, group: FiniteGroup, subgroup: Subgroup):
        if subgroup.parent is not group:
            raise InvalidSpec("subgroup belongs to a different group")
        self.group = group
        self.subgroup = subgroup
        cosets = {
            tuple(sorted(group.table[g][t] for t in subgroup.elements))
            for g in range(group.order)
        }
        # by smallest member, so the identity coset, which holds 0, first
        self.cosets = tuple(sorted(cosets))
        coset_of = [0] * group.order
        for i, c in enumerate(self.cosets):
            for e in c:
                coset_of[e] = i
        self.coset_of = tuple(coset_of)
        self.representatives = tuple(c[0] for c in self.cosets)

    @property
    def degree(self) -> int:
        return len(self.cosets)


def left_translation(space: CosetSpace, h: int) -> tuple:
    """The permutation of cosets induced by left multiplication with h."""
    row, coset_of = space.group.table[h], space.coset_of
    return tuple(coset_of[row[rep]] for rep in space.representatives)


def left_translation_image(space: CosetSpace) -> PermGroup:
    elems = {left_translation(space, h) for h in range(space.group.order)}
    return PermGroup(elems)


# ---------------------------------------------------------------------------
# Holomorph membership


def in_holomorph(M: FiniteGroup, p: tuple) -> bool:
    """Membership test via the unique candidate factorization.

    p = lambda(m) . a with m = p[0] forces a = lambda(m^-1) . p; membership
    reduces to a being an automorphism.
    """
    m = p[0]
    a = _compose(M.table[M.inverse[m]], p)
    return _respects(a, M, M)
