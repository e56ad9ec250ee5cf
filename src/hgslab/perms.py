"""Permutations of group elements and permutation subgroups.

A permutation is stored as its image sequence: p[x] is the image of x.
Composition is function composition, compose(p, q)[x] = p[q[x]].
The left translation lambda(g) sends x to g*x and the right translation
rho(g) sends x to x*g^-1, so both maps g -> lambda(g), g -> rho(g) are
homomorphisms and their images commute elementwise.

Products are row gathers: compose(p, q) is itemgetter(*q)(p), which reads
all n images at C level instead of looping over the points in Python.
itemgetter with a single index returns a scalar, not a 1-tuple, so images
of length 0 or 1 take a plain generator instead.  A conjugation is two
gathers, q . p . q^-1 = q . (p . q^-1), with the gather by q^-1 built once
per conjugator (_conjugate_all).
"""

from __future__ import annotations

import hashlib
from math import lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import ClosureCapExceeded, InvalidSpec, NotRegular
from .groups import FiniteGroup, GroupHom, Subgroup, _respects


class GPerm:
    """A permutation of 0..base-1 held as an image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int], check: bool = True):
        imgs = tuple(images)
        if check and tuple(sorted(imgs)) != tuple(range(len(imgs))):
            raise InvalidSpec(f"not a permutation: {imgs}")
        self.images = imgs

    @property
    def base(self) -> int:
        return len(self.images)

    def __getitem__(self, x: int) -> int:
        return self.images[x]

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "GPerm") -> "GPerm":
        """self after other."""
        return GPerm(_compose(self.images, other.images), check=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, GPerm) and self.images == other.images

    def __lt__(self, other: "GPerm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"GPerm{self.images}"

    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def inverse(self) -> "GPerm":
        return GPerm(_invert(self.images), check=False)

    def order(self) -> int:
        return _tuple_order(self.images)

    def fixed_points(self) -> tuple:
        return tuple(x for x, i in enumerate(self.images) if i == x)


def identity_perm(base: int) -> GPerm:
    return GPerm(range(base), check=False)


def compose(p: GPerm, q: GPerm) -> GPerm:
    """Apply q first, then p."""
    return GPerm(_compose(p.images, q.images), check=False)


def invert(p: GPerm) -> GPerm:
    return GPerm(_invert(p.images), check=False)


def conjugate(p: GPerm, q: GPerm) -> GPerm:
    """q p q^-1."""
    return GPerm(_conjugate(p.images, q.images), check=False)


# raw tuple helpers for hot loops


def _compose(p: tuple, q: tuple) -> tuple:
    if len(q) <= 1:
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def _invert(p: tuple) -> tuple:
    out = [0] * len(p)
    for x, i in enumerate(p):
        out[i] = x
    return tuple(out)


def _conjugate(p: tuple, q: tuple, qinv: Optional[tuple] = None) -> tuple:
    """q . p . q^-1; pass qinv = q^-1 when it is at hand."""
    return _conjugate_all((p,), q, _invert(q) if qinv is None else qinv)[0]


def _conjugate_all(elements: Iterable[tuple], q: tuple, qinv: tuple) -> list:
    """q . p . q^-1 for every p in elements, given qinv = q^-1.

    The gather by qinv is built once; on at most one point every
    permutation is the identity, and so is every conjugate.
    """
    if len(q) <= 1:
        return [tuple(p) for p in elements]
    at_qinv = itemgetter(*qinv)
    return [itemgetter(*at_qinv(p))(q) for p in elements]


def _normalizes(conjugators: Iterable[tuple], probes, members) -> bool:
    """Whether q . p . q^-1 lies in members for every q and every probe p."""
    return all(
        c in members
        for q in conjugators
        for c in _conjugate_all(probes, q, _invert(q))
    )


# ---------------------------------------------------------------------------
# Permutation subgroups


class PermGroup:
    """A finite set of permutations closed under composition."""

    __slots__ = ("base", "elements", "generators", "element_set")

    def __init__(self, elements: Iterable[GPerm], generators=(), check: bool = False):
        elems = tuple(sorted(elements))
        if not elems:
            raise InvalidSpec("a permutation group needs elements")
        self.base = elems[0].base
        self.elements = elems
        self.generators = tuple(generators) if generators else _greedy_generators(elems)
        self.element_set = frozenset(p.images for p in elems)
        if check:
            self._validate()

    def _validate(self) -> None:
        if len(self.element_set) != len(self.elements):
            raise InvalidSpec("duplicate permutations")
        if tuple(range(self.base)) not in self.element_set:
            raise InvalidSpec("missing identity")
        for p in self.elements:
            if p.base != self.base:
                raise InvalidSpec("mixed bases")
        for p in self.elements:
            for q in self.generators:
                if _compose(p.images, q.images) not in self.element_set:
                    raise InvalidSpec("set is not closed under composition")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p) -> bool:
        images = p.images if isinstance(p, GPerm) else tuple(p)
        return images in self.element_set

    def __eq__(self, other) -> bool:
        return isinstance(other, PermGroup) and self.element_set == other.element_set

    def __hash__(self) -> int:
        return hash(self.element_set)

    def __repr__(self) -> str:
        return f"PermGroup(base={self.base}, order={self.order})"

    def canonical_key(self) -> tuple:
        """Sorted image tuples; the canonical form for dedup and hashing."""
        return tuple(p.images for p in self.elements)

    def canonical_hash(self) -> str:
        blob = repr(self.canonical_key()).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def orbit(self, x: int) -> tuple:
        return tuple(sorted({p.images[x] for p in self.elements}))

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.base

    def is_regular(self) -> bool:
        return self.order == self.base and self.is_transitive()

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            _compose(a.images, b.images) == _compose(b.images, a.images)
            for i, a in enumerate(gens)
            for b in gens[i + 1:]
        )

    def subgroup_of(self, other: "PermGroup") -> bool:
        return self.element_set <= other.element_set

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "order": self.order,
            "generators": [list(p.images) for p in self.generators],
            "elements": [list(p.images) for p in self.elements],
        }


def _greedy_generators(elems: Sequence[GPerm]) -> tuple:
    """Small generating sequence for a closed permutation set.

    Candidates are tried by decreasing order.  For n permutations of n
    points with distinct images of 0 the order is read as the length of the
    cycle through 0: if the set is a group it is regular, so every element
    is semiregular and that cycle length is its order; if it is not a group,
    _greedy_close rejects it whatever the candidate order.
    """
    if len(elems) == 1:
        return (elems[0],)
    n = elems[0].base
    regular = len(elems) == n and len({p.images[0] for p in elems}) == n
    order = _cycle_at_0 if regular else _tuple_order
    ordered = sorted(elems, key=lambda q: (-order(q.images), q.images))
    gens = _greedy_close([p.images for p in ordered], {p.images for p in elems})
    if gens is None:
        raise InvalidSpec("set is not closed under composition")
    return tuple(GPerm(g, check=False) for g in gens)


def _greedy_close(candidates: Sequence[tuple], members) -> Optional[list]:
    """Close a generating subset picked greedily from candidates, in order.

    Each candidate not reached yet becomes a generator, and the reached set
    is extended to its closure under right multiplication by the generators:
    old elements only need the new generator, new elements need all of
    them.  Returns the picked generators once the reached set is all of
    members, or None as soon as a product leaves members (so members is
    closed exactly when the result is not None, given candidates cover it).
    Costs O(n^2 k) for n members and k picks.
    """
    ident = tuple(range(len(candidates[0]))) if candidates else ()
    if ident not in members:
        return None
    have = {ident}
    gens: list = []
    for p in candidates:
        if len(have) == len(members):
            break
        if p in have:
            continue
        gens.append(p)
        pending = [(x, (p,)) for x in have]
        while pending:
            x, by = pending.pop()
            for g in by:
                y = _compose(x, g)
                if y not in have:
                    if y not in members:
                        return None
                    have.add(y)
                    pending.append((y, gens))
    return gens if len(have) == len(members) else None


def _cycle_at_0(images: tuple) -> int:
    """Length of the cycle through 0."""
    length, x = 1, images[0]
    while x != 0:
        x = images[x]
        length += 1
    return length


def _tuple_order(images: tuple) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(images)
    order = 1
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        order = lcm(order, length)
    return order


def _close_images(gens: list, cap: Optional[int] = None) -> set:
    base = len(gens[0]) if gens else 0
    ident = tuple(range(base))
    out = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                p = _compose(a, g)
                if p not in out:
                    if cap is not None and len(out) >= cap:
                        raise ClosureCapExceeded(
                            f"closure exceeded cap of {cap} elements"
                        )
                    out.add(p)
                    nxt.append(p)
        frontier = nxt
    return out


def generated_perm_group(
    gens: Sequence[GPerm], base: Optional[int] = None, cap: Optional[int] = None
) -> PermGroup:
    """Close a generator list under composition.

    The closure aborts once it exceeds cap, which defaults to 10 * base^2.
    """
    gens = list(gens)
    if not gens:
        if base is None:
            raise InvalidSpec("need generators or an explicit base")
        return PermGroup([identity_perm(base)], check=False)
    b = gens[0].base
    if base is not None and base != b:
        raise InvalidSpec("generator base does not match requested base")
    for g in gens:
        if g.base != b:
            raise InvalidSpec("generators act on different bases")
    if cap is None:
        cap = 10 * b * b
    closed = _close_images([g.images for g in gens], cap=cap)
    elems = [GPerm(im, check=False) for im in closed]
    return PermGroup(elems, generators=tuple(gens))


def perm_group_from_elements(images_set: Iterable[tuple]) -> PermGroup:
    """Wrap an already-closed set of image tuples, trusted."""
    return PermGroup([GPerm(im, check=False) for im in images_set])


# ---------------------------------------------------------------------------
# Translations


def lambda_embed(G: FiniteGroup, g: int) -> GPerm:
    """Left translation x -> g*x; this is row g of the Cayley table."""
    return GPerm(G.table[g], check=False)


def rho_embed(G: FiniteGroup, g: int) -> GPerm:
    """Right translation x -> x*g^-1."""
    ginv = G.inverse[g]
    return GPerm(tuple(G.table[x][ginv] for x in range(G.order)), check=False)


def lambda_image(G: FiniteGroup) -> PermGroup:
    elems = [lambda_embed(G, g) for g in range(G.order)]
    gens = [lambda_embed(G, g) for g in G.generating_set()] or [identity_perm(G.order)]
    return PermGroup(elems, generators=tuple(gens))


def rho_image(G: FiniteGroup) -> PermGroup:
    elems = [rho_embed(G, g) for g in range(G.order)]
    gens = [rho_embed(G, g) for g in G.generating_set()] or [identity_perm(G.order)]
    return PermGroup(elems, generators=tuple(gens))


# ---------------------------------------------------------------------------
# Centralizer of a regular subgroup


def centralizer_of_regular(N: PermGroup) -> PermGroup:
    """Centralizer in the full symmetric group of a regular subgroup.

    For regular N the centralizer is again regular and is read off from the
    bijection eta -> eta[0]: the element sending x to eta_x[m] belongs to it
    for every point m, and these exhaust it.  No search over the symmetric
    group happens.
    """
    n = N.base
    if N.order != n:
        raise NotRegular(f"order {N.order} does not match base {n}")
    eta = [None] * n
    for p in N.elements:
        a = p.images[0]
        if eta[a] is not None:
            raise NotRegular(f"two elements send 0 to {a}")
        eta[a] = p.images
    ident = tuple(range(n))
    opp = []
    for m, images in enumerate(zip(*eta)):
        if tuple(sorted(images)) != ident:
            raise NotRegular(f"centralizer candidate at {m} is not a bijection")
        opp.append(GPerm(images, check=False))
    return PermGroup(opp)


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
        seen = {}
        cosets = []
        for g in range(group.order):
            elems = tuple(sorted(group.table[g][t] for t in subgroup.elements))
            if elems not in seen:
                seen[elems] = len(cosets)
                cosets.append(elems)
        # identity coset first, the rest ordered by smallest member
        cosets.sort(key=lambda c: (0 not in c, c[0]))
        self.cosets = tuple(cosets)
        coset_of = [0] * group.order
        for i, c in enumerate(self.cosets):
            for e in c:
                coset_of[e] = i
        self.coset_of = tuple(coset_of)
        self.representatives = tuple(c[0] for c in self.cosets)

    @property
    def degree(self) -> int:
        return len(self.cosets)

    def __len__(self) -> int:
        return len(self.cosets)


def coset_space(G: FiniteGroup, T: Subgroup) -> CosetSpace:
    return CosetSpace(G, T)


def left_translation(space: CosetSpace, h: int) -> GPerm:
    """The permutation of cosets induced by left multiplication with h."""
    G = space.group
    images = tuple(
        space.coset_of[G.table[h][rep]] for rep in space.representatives
    )
    return GPerm(images, check=False)


def left_translation_image(space: CosetSpace) -> PermGroup:
    elems = {left_translation(space, h).images for h in range(space.group.order)}
    return perm_group_from_elements(elems)


# ---------------------------------------------------------------------------
# Holomorph


class Holomorph:
    """Hol(M) inside Perm(M) with the translation/automorphism factorization."""

    __slots__ = ("group", "perm_group", "automorphisms", "factor")

    def __init__(self, group: FiniteGroup, perm_group: PermGroup, automorphisms, factor):
        self.group = group
        self.perm_group = perm_group
        self.automorphisms = automorphisms
        self.factor = factor

    @property
    def order(self) -> int:
        return self.perm_group.order

    def factorize(self, p: GPerm) -> tuple:
        """Return (m, automorphism index) with p = lambda(m) . aut."""
        key = p.images if isinstance(p, GPerm) else tuple(p)
        if key not in self.factor:
            raise InvalidSpec("permutation is not in the holomorph")
        return self.factor[key]

    def contains(self, p: GPerm) -> bool:
        return p.images in self.factor

    def as_group(self) -> FiniteGroup:
        """Cayley table of the holomorph on its sorted permutation list.

        The identity image tuple is lexicographically smallest, so sorted
        order automatically places it at index 0.
        """
        return perm_group_as_group(self.perm_group)[0]


def holomorph(M: FiniteGroup) -> Holomorph:
    """Hol(M) = lambda(M) Aut(M) as explicit permutations of M."""
    from .groups import automorphisms as group_automorphisms

    auts = group_automorphisms(M)
    elems = []
    factor = {}
    for m in range(M.order):
        lam = M.table[m]
        for ai, aut in enumerate(auts):
            images = _compose(lam, aut.images)
            if images in factor:
                raise InvalidSpec("holomorph factorization collision")
            factor[images] = (m, ai)
            elems.append(GPerm(images, check=False))
    pg = PermGroup(elems)
    return Holomorph(M, pg, tuple(auts), factor)


def perm_group_as_group(P: PermGroup) -> tuple:
    """The abstract Cayley table of a permutation group on its sorted elements.

    Returns (FiniteGroup, element list); position i corresponds to
    P.elements[i].  The identity lands at position 0 because its image tuple
    is lexicographically smallest.
    """
    elems = P.elements
    pos = {p.images: i for i, p in enumerate(elems)}
    table = [
        [pos[_compose(a.images, b.images)] for b in elems] for a in elems
    ]
    G = FiniteGroup(table, check=False)
    return G, elems


def in_holomorph(M: FiniteGroup, p: GPerm) -> bool:
    """Membership test via the unique candidate factorization.

    p = lambda(m) . a with m = p[0] forces a = lambda(m^-1) . p; membership
    reduces to a being an automorphism.
    """
    m = p.images[0]
    a = _compose(M.table[M.inverse[m]], p.images)
    return _respects(a, M.table, M.table)
