"""Finite groups as Cayley tables with 0-based element ids.

Conventions used everywhere in this package:
  * elements of a group of order n are the integers 0..n-1,
  * index 0 is the identity,
  * table[a][b] is the product a*b.

Element ids have one closure kernel, _join: it extends a subgroup, given
with the ids that generate it, by a piece of further ids.  Old elements are
multiplied by the piece only and new ones by every generator, so
subgroup_closure and generating_set (through _greedy_join, one id at a
time, skipping ids already reached) and the subgroup lattices of
_join_closures share it.  The lattice builds each subgroup once, from its
greedy walk over the pieces (join each piece not reached yet): _join stops
a join that reaches an earlier piece, which that walk would pick first.
A regular permutation set is its own Cayley table, so _greedy_join and
_acts close it too (perms._greedy_generators); perms._greedy_close, which
composes tuples, is kept for permutation sets without such a table.  Ids
are never closed through their lambda rows, which would turn table lookups
into tuple products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import ClosureCapExceeded, InvalidSpec, OrderTooLarge, UnsupportedOrder

# Orders for which catalog_specs() lists every isomorphism type; primes are
# complete too (see catalog_complete).
COMPLETE_ORDERS = frozenset(range(1, 16)) | {21}

SYMMETRIC_DEGREE_LIMIT = 5
ALTERNATING_DEGREE_LIMIT = 5

# build_group refuses larger orders before allocating the n^2 table; the
# largest group the tests, verify and the benchmark build is sym:5 (120).
GROUP_ORDER_LIMIT = 1024

# parse_spec refuses product specs with parentheses nested deeper than this
# (InvalidSpec, exit 2) rather than recursing; an order within the limit has
# at most 10 nontrivial factors.
SPEC_NESTING_LIMIT = 16

# A subgroup lattice (all_subgroups, or a structure's stable subgroups) with
# more entries than this is refused (ClosureCapExceeded, exit 2): the rho
# structure of elemab:2:6 has 2,825 stable subgroups, elemab:2:7 has 29,212.
LATTICE_LIMIT = 4096

# automorphisms and constructions.abelian_maps refuse a backtrack over more
# choices of generator images than this (UnsupportedOrder, exit 2), counted
# before it starts.  _generator_maps prunes dead prefixes, but the answer
# itself can be near the count: C2^5 needs 28,629,151 automorphism choices
# and has 9,999,360 automorphisms, and all its 33,554,432 abelian-map
# choices are abelian maps (C3^4: 40,960,000 and 43,046,721 choices).  The
# tests, verify and the benchmark need at most 65,536 (C2^3 x C4, and the
# abelian maps of C2^4).  are_isomorphic stops at its first witness and is
# not refused.
AUTOMORPHISM_SEARCH_LIMIT = 10**6


# ---------------------------------------------------------------------------
# Group specifications


@dataclass(frozen=True)
class GroupSpec:
    """Constructor name plus parameters; the text form is `kind:p1:p2`."""

    kind: str
    params: tuple = ()
    parts: tuple = ()

    def __str__(self) -> str:
        if self.kind == "product":
            return "product:" + ",".join(
                f"({p})" if p.kind == "product" else str(p) for p in self.parts)
        bits = [self.kind] + [str(p) for p in self.params]
        return ":".join(bits)

    @staticmethod
    def cyclic(n: int) -> "GroupSpec":
        return GroupSpec("cyclic", (n,))

    @staticmethod
    def dihedral(n: int) -> "GroupSpec":
        """Dihedral group of order 2n."""
        return GroupSpec("dihedral", (n,))

    @staticmethod
    def metacyclic(p: int, q: int, d: int) -> "GroupSpec":
        return GroupSpec("metacyclic", (p, q, d))

    @staticmethod
    def symmetric(n: int) -> "GroupSpec":
        return GroupSpec("sym", (n,))

    @staticmethod
    def alternating(n: int) -> "GroupSpec":
        return GroupSpec("alt", (n,))

    @staticmethod
    def dicyclic(n: int) -> "GroupSpec":
        """Dicyclic group of order 2n; n must be even."""
        return GroupSpec("dicyclic", (n,))

    @staticmethod
    def product(*parts: "GroupSpec") -> "GroupSpec":
        if len(parts) < 2:
            raise InvalidSpec("product needs at least two factors")
        return GroupSpec("product", (), tuple(parts))


def parse_spec(text: str) -> GroupSpec:
    """Parse the `kind:p1:p2` grammar, `product:<spec>,<spec>` for products."""
    text = text.strip()
    if not text:
        raise InvalidSpec("empty group spec")
    if text.startswith("product:"):
        body = text[len("product:"):]
        parts = [parse_spec(chunk) for chunk in _split_product(body)]
        if len(parts) < 2:
            raise InvalidSpec(f"product spec needs two or more factors: {text!r}")
        return GroupSpec.product(*parts)
    bits = text.split(":")
    kind = bits[0]
    if kind not in _SPEC_KINDS:
        raise InvalidSpec(f"unknown group kind {kind!r}")
    try:
        params = tuple(int(b) for b in bits[1:])
    except ValueError:
        raise InvalidSpec(f"non-integer parameter in spec {text!r}")
    arity = _SPEC_KINDS[kind]
    if len(params) != arity:
        raise InvalidSpec(f"{kind} takes {arity} parameter(s), got {len(params)}")
    return GroupSpec(kind, params)


def _split_product(body: str) -> list[str]:
    # product factors are comma separated; nested products use parentheses
    out, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
            if depth > SPEC_NESTING_LIMIT:
                raise InvalidSpec(
                    f"product spec nests deeper than {SPEC_NESTING_LIMIT} levels")
            if depth == 1:
                continue
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidSpec(f"unbalanced parentheses in {body!r}")
            if depth == 0:
                continue
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InvalidSpec(f"unbalanced parentheses in {body!r}")
    out.append("".join(cur))
    return [c for c in out if c]


_SPEC_KINDS = {
    "cyclic": 1,
    "dihedral": 1,
    "metacyclic": 3,
    "sym": 1,
    "alt": 1,
    "quaternion": 1,
    "dicyclic": 1,
    "elemab": 2,
    "product": 0,
}


# ---------------------------------------------------------------------------
# The group object


class FiniteGroup:
    """Immutable Cayley-table group.

    The table is validated on construction: rows and columns must be
    permutations, index 0 must act as a two-sided identity and every element
    needs a two-sided inverse.  Associativity is decided at every order by
    Light's test on generators; a scan only names the witness.
    """

    __slots__ = ("order", "table", "inverse", "names", "spec", "_derived")

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
        spec: Optional[GroupSpec] = None,
        check: bool = True,
    ):
        tbl = tuple(tuple(row) for row in table)
        n = len(tbl)
        if n == 0:
            raise InvalidSpec("a group needs at least one element")
        if names is None:
            names = tuple(str(i) for i in range(n))
        self.order = n
        self.table = tbl
        self.names = tuple(names)
        self.spec = spec
        self._derived: dict = {}
        if check:
            self._validate_shape()
        self.inverse = self._compute_inverses()
        if check:
            self._validate_associativity()

    # -- construction checks

    def _validate_shape(self) -> None:
        n = self.order
        ident = tuple(range(n))
        if len(self.names) != n:
            raise InvalidSpec("names length does not match order")
        for a, row in enumerate(self.table):
            if len(row) != n:
                raise InvalidSpec(f"row {a} has wrong length")
            if tuple(sorted(row)) != ident:
                raise InvalidSpec(f"row {a} is not a permutation")
        for b, col in enumerate(zip(*self.table)):
            if tuple(sorted(col)) != ident:
                raise InvalidSpec(f"column {b} is not a permutation")
        if self.table[0] != ident:
            raise InvalidSpec("index 0 is not a left identity")
        if tuple(row[0] for row in self.table) != ident:
            raise InvalidSpec("index 0 is not a right identity")

    def _compute_inverses(self) -> tuple:
        inv = [0] * self.order
        for a, row in enumerate(self.table):
            b = row.index(0)
            if self.table[b][a] != 0:
                raise InvalidSpec(f"element {a} has no two-sided inverse")
            inv[a] = b
        return tuple(inv)

    def _validate_associativity(self) -> None:
        """When _associative says no, names the first failing (a,b,c)."""
        t = self.table
        if _associative(t):
            return
        at_row = [_row_getter(row) for row in t]
        for a, ta in enumerate(t):
            for b, ab in enumerate(ta):
                if t[ab] != at_row[b](ta):
                    c = next(c for c, x in enumerate(t[ab]) if x != ta[t[b][c]])
                    raise InvalidSpec(f"associativity fails at ({a},{b},{c})")

    # -- basic operations

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return self.table[self.table[g][a]][self.inverse[g]]

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = str(self.spec) if self.spec is not None else f"order{self.order}"
        return f"FiniteGroup({label})"

    # -- memoized derived data

    def _memo(self, key, fn: Callable):
        d = self._derived
        if key not in d:
            d[key] = fn()
        return d[key]

    @property
    def element_orders(self) -> tuple:
        """Row g is lambda(g), whose cycle through 0 is 0, g, g^2, ..."""
        return self._memo("orders", lambda: tuple(map(_cycle_at_0, self.table)))

    def element_order(self, a: int) -> int:
        return self.element_orders[a]

    def order_profile(self) -> tuple:
        """Sorted multiset of element orders; an isomorphism invariant."""
        return self._memo("profile", lambda: tuple(sorted(self.element_orders)))

    @property
    def is_abelian(self) -> bool:
        """Whether the table equals its transpose."""
        return self._memo("abelian", lambda: self.table == tuple(zip(*self.table)))

    def center(self) -> tuple:
        """The a whose row equals their column."""
        t = self.table
        return self._memo("center", lambda: tuple(
            a for a, col in enumerate(zip(*t)) if t[a] == col))

    def generating_set(self) -> tuple:
        """Greedy small generating set, highest element order first: walk the
        ids by (-order, id) and join each one not reached yet."""

        return self._memo(
            "gens", lambda: _order_walk(self.table, self.element_orders)[0])

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.group/1",
            "spec": str(self.spec) if self.spec is not None else None,
            "order": self.order,
            "names": list(self.names),
            "table": [list(row) for row in self.table],
        }


def _row_getter(idx: Sequence[int]) -> Callable:
    """seq -> tuple(seq[i] for i in idx), a C-level itemgetter gather.

    itemgetter with one index returns a scalar, so index rows of length 0
    or 1 fall back to a generator.
    """
    if len(idx) <= 1:
        return lambda seq: tuple(seq[i] for i in idx)
    return itemgetter(*idx)


def _acts(rows, table: Sequence[Sequence[int]], gens) -> bool:
    """Whether rows[table[y][g]][z] == rows[y][rows[g][z]] for all y, z and
    each g in gens.  The g passing it are closed under an associative
    table's product, so on generators it gives the law at every g."""
    for g in gens:
        at_g = _row_getter(rows[g])
        if any(rows[ty[g]] != at_g(ry) for ty, ry in zip(table, rows)):
            return False
    return True


def _associative(t: Sequence[Sequence[int]]) -> bool:
    """Light's test: (y*g)*z = y*(g*z) at g = 0 and at the generators
    _greedy_join picks.  The g passing it are closed under the product even
    in a table that is not associative, and every id is 0, a generator or a
    product of them."""
    return _acts(t, t, (0, *_greedy_join(t, range(1, len(t)))[0]))


def _columns(G: FiniteGroup) -> tuple:
    """The columns of G's Cayley table, built once per group."""
    return G._memo("columns", lambda: tuple(zip(*G.table)))


def _respects(images: Sequence[int], src: FiniteGroup, dst: FiniteGroup) -> bool:
    """Whether images[a*b] == images[a]*images[b] for all a, b in src.

    Decided at b = g in src.generating_set() (at 0 in the trivial group),
    one column pair per g: images gathered at src's column g against dst's
    column images[g] gathered at images.  The b where it holds for every a
    are closed under the product, dst being associative:
    images[a*b*c] = images[a*b]*images[c] = images[a]*images[b]*images[c]
    = images[a]*images[b*c].  Every b is a word in the generators, so by
    induction on its length it holds at every b, as in _generator_maps.
    """
    at_images = _row_getter(images)
    src_cols, dst_cols = _columns(src), _columns(dst)
    return all(
        _row_getter(src_cols[g])(images) == at_images(dst_cols[images[g]])
        for g in src.generating_set() or (0,)
    )


def _join(table: Sequence[Sequence[int]], have, gens, piece, rank=None, bound=0):
    """Closure of have and piece in a Cayley table, have being the subgroup
    that the ids gens generate; None once a new id y has rank[y] < bound.

    Old elements are multiplied by the piece only, new ones by gens and the
    piece: an element of the join is a word in gens and the piece, and have
    is already closed under gens.
    """
    out, fresh = set(have), []
    for xs, by in ((have, piece), (fresh, (*gens, *piece))):
        for x in xs:
            row = table[x]
            for g in by:
                if (y := row[g]) not in out:
                    if bound and rank[y] < bound:
                        return None
                    out.add(y)
                    fresh.append(y)
    return out


def _greedy_join(table: Sequence[Sequence[int]], ids) -> tuple:
    """(gens, reached): walk ids in order and join each one not reached yet;
    reached, the subgroup that ids generate, is also generated by gens."""
    gens, reached = [], {0}
    for x in ids:
        if x not in reached:
            reached = _join(table, reached, gens, (x,))
            gens.append(x)
    return tuple(gens), reached


def _order_walk(table: Sequence[Sequence[int]], orders: Sequence[int]) -> tuple:
    """_greedy_join over the ids by decreasing order, then id: the
    (gens, reached) of generating_set and of a regular permutation set."""
    ids = sorted(range(len(table)), key=lambda x: (-orders[x], x))
    return _greedy_join(table, ids)


# ---------------------------------------------------------------------------
# Subgroups


class Subgroup:
    """A subgroup of a FiniteGroup, kept as a sorted element tuple.

    The ids must be closed under the product; _closed=True skips that check
    for ids that a closure kernel has just returned.
    """

    __slots__ = ("parent", "elements", "generators", "element_set", "_abstract")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int], generators=(),
                 _closed=False):
        self.parent = parent
        self.element_set = frozenset(elements)
        self.elements = tuple(sorted(self.element_set))
        self.generators = tuple(generators)
        self._abstract = None
        if _closed:
            return
        for g in self.elements[:1] + self.elements[-1:]:  # the least and the greatest
            _check_id(parent, g)
        if not self.elements or self.elements[0] != 0:
            raise InvalidSpec("a subgroup must contain the identity")
        if _greedy_join(parent.table, self.elements)[1] != self.element_set:
            t, have = parent.table, self.element_set
            y = next(t[a][b] for a in self.elements for b in self.elements
                     if t[a][b] not in have)
            raise InvalidSpec(f"not closed: the product {y} is missing")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self.element_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={self.elements})"

    def is_normal(self) -> bool:
        """Whether g S g^-1 lies in S for the parent's generators g; the g
        for which it does are closed under the product, a subgroup."""
        G, at = self.parent, _row_getter(self.elements)
        return all(self.element_set.issuperset(at(inner_automorphism(G, g).images))
                   for g in G.generating_set())

    def as_group(self) -> tuple:
        """The subgroup as a FiniteGroup on positions, with the element list.

        Positions follow the sorted element order, so the identity lands at 0.
        """
        if self._abstract is None:
            G = self.parent
            elems = self.elements
            pos = {e: i for i, e in enumerate(elems)}
            table = [[pos[G.table[a][b]] for b in elems] for a in elems]
            names = [G.names[e] for e in elems]
            sub = FiniteGroup(table, names=names, check=True)
            self._abstract = (sub, elems)
        return self._abstract


def _check_id(G: FiniteGroup, g: int) -> None:
    """Raise InvalidSpec unless g is an element id of G, 0..order-1."""
    if not 0 <= g < G.order:
        raise InvalidSpec(f"element id {g} out of range 0..{G.order - 1}")


def subgroup_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing gens."""
    gens = sorted(set(gens) - {0})
    for g in gens[:1] + gens[-1:]:  # the least and the greatest
        _check_id(G, g)
    return Subgroup(G, _greedy_join(G.table, gens)[1], tuple(gens), _closed=True)


def _join_closures(table: Sequence[Sequence[int]], pieces) -> dict:
    """Every subgroup generated by a union of pieces, {element set: picks},
    each built once (orderly generation, Read 1978): breadth first, S is
    joined only with the pieces after its last pick, and _join stops at a
    new id in an earlier piece, which the join's own greedy walk picks
    first, so another parent builds it.  Raises ClosureCapExceeded past
    LATTICE_LIMIT subgroups."""
    rank = {x: i for i, piece in enumerate(pieces) for x in piece}
    queue = [(frozenset((0,)), 0)]
    found = {queue[0][0]: ()}
    for have, first in queue:
        for i, piece in enumerate(pieces[first:], first):
            if piece[0] not in have and (
                    joined := _join(table, have, found[have], piece, rank, i)):
                key = frozenset(joined)
                found[key] = found[have] + piece
                if len(found) > LATTICE_LIMIT:
                    raise ClosureCapExceeded(
                        f"more than {LATTICE_LIMIT} subgroups in the lattice"
                    )
                queue.append((key, i + 1))
    return found


def _joined_subgroups(G: FiniteGroup, pieces) -> list:
    found = _join_closures(G.table, pieces)
    subs = [Subgroup(G, k, sorted(g), _closed=True) for k, g in found.items()]
    return sorted(subs, key=lambda s: (s.order, s.elements))


def all_subgroups(G: FiniteGroup) -> list:
    """Every subgroup of G: the joins of closures of single elements,
    refused past LATTICE_LIMIT subgroups."""
    return G._memo(
        "all_subgroups",
        lambda: _joined_subgroups(G, [(x,) for x in range(1, G.order)]),
    )


def _orbits(moves, n: int) -> list:
    """Orbits on 0..n-1 of the group that the permutations moves generate,
    ordered by smallest point; each is a tuple in the order it was walked
    from that point."""
    orbits, seen = [], [False] * n
    for a in range(n):
        if not seen[a]:
            seen[a] = True
            orbit = [a]
            for x in orbit:
                for move in moves:
                    y = move[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            orbits.append(tuple(orbit))
    return orbits


def conjugacy_classes(G: FiniteGroup) -> list:
    """Conjugacy classes as sorted tuples, ordered by smallest member: the
    orbits of conjugation by the generators."""

    def compute():
        moves = [inner_automorphism(G, g).images for g in G.generating_set()]
        return [tuple(sorted(c)) for c in _orbits(moves, G.order)]

    return G._memo("classes", compute)


def class_index(G: FiniteGroup) -> tuple:
    """Map from element to the index of its conjugacy class."""

    def compute():
        idx = [0] * G.order
        for k, cls in enumerate(conjugacy_classes(G)):
            for a in cls:
                idx[a] = k
        return tuple(idx)

    return G._memo("class_index", compute)


def normal_subgroups(G: FiniteGroup) -> list:
    """All normal subgroups: the joins of closures of conjugacy classes."""
    return G._memo(
        "normal_subgroups",
        lambda: _joined_subgroups(G, conjugacy_classes(G)[1:]),
    )


# ---------------------------------------------------------------------------
# Homomorphisms


class GroupHom:
    """A map between groups given by its full image array."""

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, images):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)
        if len(self.images) != domain.order:
            raise InvalidSpec("image array length does not match domain order")
        if not 0 <= min(self.images) <= max(self.images) < codomain.order:
            raise InvalidSpec(f"image ids must lie in 0..{codomain.order - 1}")

    def __call__(self, a: int) -> int:
        return self.images[a]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupHom)
            and self.domain is other.domain
            and self.codomain is other.codomain
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((id(self.domain), id(self.codomain), self.images))

    def __repr__(self) -> str:
        return f"GroupHom({self.images})"

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.codomain is not self.domain:
            raise InvalidSpec("composition domains do not line up")
        return GroupHom(
            other.domain,
            self.codomain,
            tuple(self.images[x] for x in other.images),
        )


def is_homomorphism(G: FiniteGroup, H: FiniteGroup, images: Sequence[int]) -> bool:
    """Whether images, one id of H per element of G, respects the two
    multiplication tables; _respects decides it on G's generators (and
    so sends 0 to 0)."""
    img = tuple(images)
    return (
        len(img) == G.order and 0 <= min(img) <= max(img) < H.order
        and _respects(img, G, H)
    )


def _generator_maps(G: FiniteGroup, H, candidates, keep=None, owner=None):
    """The homomorphisms G -> H sending G.generating_set()[k] to a candidate
    of level k, as image tuples in the order of the picks.  H is a
    FiniteGroup or a product mul(u, v) on ids with identity 0; candidates[k],
    or candidates(k) when callable, is read once the earlier picks spread.
    Each prefix of picks must pass keep.  With owner = (d, coset_of), z
    sends the base point to z % d, and no two cosets coset_of[x] (with
    coset_of[0] = 0) may send it to one point: injectivity is (|H|, range(|G|)).

    A prefix backtrack: each pick spreads img[x.g] = img[x].img[g] along G's
    Cayley graph from where the last level stopped, as _join does (old x
    times the new generator, new x, first, times every one picked), and dies
    at the first edge that meets another image or an owned point.  The
    subgroup reached has every edge checked, so a dead pick has no
    completion, and a map agreeing on all of G's edges is a homomorphism.
    """
    gens, t = G.generating_set(), G.table
    mul = (lambda u, v, th=H.table: th[u][v]) if isinstance(H, FiniteGroup) else H
    level = candidates if callable(candidates) else candidates.__getitem__
    img, reached, picked, owners = [0] + [None] * (G.order - 1), [0], [], {0: 0}
    d, coset_of = owner or (1, None)

    def spread(old: int) -> bool:
        edges = tuple(zip(gens, picked))
        last, i, j = edges[-1:], 0, old
        while True:
            if j < len(reached):  # new x first: a failing relation shows early
                x, by, j = reached[j], edges, j + 1
            elif i < old:
                x, by, i = reached[i], last, i + 1
            else:
                return True
            row, u = t[x], img[x]
            for g, h in by:
                y, z = row[g], mul(u, h)
                if img[y] is None:
                    if owner and owners.setdefault(z % d, coset_of[y]) != coset_of[y]:
                        return False
                    img[y] = z
                    reached.append(y)
                elif img[y] != z:
                    return False

    def walk(k: int):
        if k == len(gens):
            yield tuple(img)
            return
        old, mark = len(reached), len(owners)
        for h in level(k):
            picked.append(h)
            if (keep is None or keep(picked)) and spread(old):
                yield from walk(k + 1)
            for y in reached[old:]:
                img[y] = None
            for _ in range(len(owners) - mark):
                owners.popitem()  # the points claimed at this level, last first
            del reached[old:], picked[-1]

    return walk(0)


def _iso_candidates(G: FiniteGroup, H: FiniteGroup, gen: int) -> list:
    """Elements of H that can receive gen under an isomorphism."""
    ords_h = H.element_orders
    want = G.element_order(gen)
    cls_g = conjugacy_classes(G)
    cls_h = conjugacy_classes(H)
    size_g = len(cls_g[class_index(G)[gen]])
    sizes_h = class_index(H)
    return [
        y
        for y in range(H.order)
        if ords_h[y] == want and len(cls_h[sizes_h[y]]) == size_g
    ]


def _isomorphisms(G: FiniteGroup, H: FiniteGroup):
    """Every isomorphism G -> H: _generator_maps, injective, over generator
    images filtered by order and class size."""
    if G.order != H.order or G.order_profile() != H.order_profile():
        return iter(())
    cand = [_iso_candidates(G, H, g) for g in G.generating_set()]
    return _generator_maps(G, H, cand, owner=(H.order, range(G.order)))


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupHom]:
    """An isomorphism G -> H, or None."""
    img = next(_isomorphisms(G, H), None)
    return None if img is None else GroupHom(G, H, img)


def _refuse_large_search(what: str, candidates: Sequence[Sequence[int]]) -> None:
    """Raise UnsupportedOrder when a backtrack over generator images, one
    candidate list per generator, would range over more choices than
    AUTOMORPHISM_SEARCH_LIMIT."""
    choices = 1
    for c in candidates:
        choices *= len(c)
    if choices > AUTOMORPHISM_SEARCH_LIMIT:
        raise UnsupportedOrder(
            f"the {what} search would range over {choices} choices of "
            f"generator images, above the limit of {AUTOMORPHISM_SEARCH_LIMIT}"
        )


def automorphisms(G: FiniteGroup) -> list:
    """All automorphisms of G, sorted by image array; refused before the
    backtrack when it would range over more than AUTOMORPHISM_SEARCH_LIMIT
    choices of generator images."""

    def compute():
        _refuse_large_search(
            "automorphism", [_iso_candidates(G, G, g) for g in G.generating_set()]
        )
        return [GroupHom(G, G, img) for img in sorted(_isomorphisms(G, G))]

    return G._memo("automorphisms", compute)


def inner_automorphism(G: FiniteGroup, g: int) -> GroupHom:
    """Conjugation x -> g x g^-1 as a GroupHom, one gather: x g^-1 is
    column g^-1 of the table, read at row g, whose entry x is g x."""
    _check_id(G, g)
    return GroupHom(G, G, _row_getter(G.table[g])(_columns(G)[G.inverse[g]]))


# ---------------------------------------------------------------------------
# Builders


def build_group(spec) -> FiniteGroup:
    """Construct (and cache) the group described by spec (GroupSpec or text).

    The one place a builder's table becomes a group, with every check on.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    G = _GROUP_CACHE.get(spec)
    if G is None:
        G = _GROUP_CACHE[spec] = FiniteGroup(*_table_and_names(spec), spec=spec)
    return G


_GROUP_CACHE: dict = {}


def _table_and_names(spec: GroupSpec) -> tuple:
    """spec's unchecked (table, names), refused with OrderTooLarge before
    the table is allocated."""
    if _spec_order(spec) > GROUP_ORDER_LIMIT:
        raise OrderTooLarge(
            f"{spec} has order above the limit of {GROUP_ORDER_LIMIT}"
        )
    return _build_group_uncached(spec)


def _spec_order(spec: GroupSpec) -> int:
    """The order spec asks for, capped at GROUP_ORDER_LIMIT + 1.

    Parameters the builders reject give 0, so their own errors stay in
    charge; a product with such a part is checked part by part as it is
    built.
    """
    kind, params = spec.kind, spec.params
    if kind == "product":
        factors = [_spec_order(part) for part in spec.parts]
    elif kind == "elemab":
        factors = params[:1] * min(max(params[1], 0), GROUP_ORDER_LIMIT.bit_length())
    elif kind == "sym":
        factors = [_factorial(params[0])
                   if 1 <= params[0] <= SYMMETRIC_DEGREE_LIMIT else 0]
    elif kind == "alt":
        factors = [_factorial(params[0]) // 2
                   if 3 <= params[0] <= ALTERNATING_DEGREE_LIMIT else 0]
    else:
        factors = {"cyclic": params, "dihedral": (2,) + params, "quaternion": params,
                   "dicyclic": (2,) + params, "metacyclic": params[:2]}.get(kind, (0,))
    order = 1
    for f in factors:
        order = min(order * max(f, 0), GROUP_ORDER_LIMIT + 1)
    return order


def _build_group_uncached(spec: GroupSpec) -> tuple:
    """The (table, names) of spec, unchecked: build_group checks them once.

    Cyclic rows are rotations of one tuple of ids; elemab and product are
    direct products of their factors' tables (_product).
    """
    kind = spec.kind
    if kind == "cyclic":
        (n,) = spec.params
        if n < 1:
            raise InvalidSpec("cyclic order must be positive")
        ids = tuple(range(n))
        names = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
        return [ids[a:] + ids[:a] for a in range(n)], names

    if kind == "dihedral":
        (n,) = spec.params
        if n < 1:
            raise InvalidSpec("dihedral parameter must be positive")
        return _semidirect_table(n, 2, n - 1, 0, "rs")

    if kind == "metacyclic":
        return _metacyclic_table(*spec.params)

    if kind == "sym":
        (n,) = spec.params
        if not 1 <= n <= SYMMETRIC_DEGREE_LIMIT:
            raise InvalidSpec(
                f"sym degree must be between 1 and {SYMMETRIC_DEGREE_LIMIT}"
            )
        return _perm_list_table(sorted(itertools.permutations(range(n))))

    if kind == "alt":
        (n,) = spec.params
        if not 3 <= n <= ALTERNATING_DEGREE_LIMIT:
            raise InvalidSpec(
                f"alt degree must be between 3 and {ALTERNATING_DEGREE_LIMIT}"
            )
        return _perm_list_table(sorted(
            p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1
        ))

    if kind == "quaternion":
        (n,) = spec.params
        if n != 8:
            raise InvalidSpec("quaternion group is only defined for order 8")
        return _semidirect_table(4, 2, 3, 2, "ab")

    if kind == "dicyclic":
        (n,) = spec.params
        if n % 2 != 0:
            raise InvalidSpec("dicyclic parameter must be even")
        if n < 4:
            raise InvalidSpec("dicyclic parameter must be at least 4")
        return _semidirect_table(n, 2, n - 1, n // 2, "ab")

    if kind == "elemab":
        p, k = spec.params
        if not _is_prime(p):
            raise InvalidSpec(f"{p} is not prime")
        if k < 1:
            raise InvalidSpec("rank must be positive")
        # x has its base-p digits in big-endian order, as the names spell them
        table, _ = _product([_build_group_uncached(GroupSpec.cyclic(p))] * k)
        names = ["".join(map(str, x)) for x in itertools.product(range(p), repeat=k)]
        return table, names

    if kind == "product":
        return _product([_table_and_names(part) for part in spec.parts])

    raise InvalidSpec(f"unknown group kind {kind!r}")


def _semidirect_table(n: int, q: int, d: int, twist: int, letters: str) -> tuple:
    """Table and names of the group of pairs (i, j), i mod n and j mod q,
    with (i, j).(k, l) = (i + k d^j + [twist if j + l >= q], j + l).

    The pair (i, j) is the word x^i y^j, x and y named by letters, at index
    q*i + j.  Dihedral is (q, d, twist) = (2, n-1, 0), dicyclic (2, n-1, n/2)
    and metacyclic (q, d, 0).
    """
    powers = [pow(d, j, n) for j in range(q)]
    table = [
        [q * ((i + k * powers[j] + (twist if j + l >= q else 0)) % n) + (j + l) % q
         for k in range(n) for l in range(q)]
        for i in range(n) for j in range(q)
    ]
    x, y = letters
    names = [_word_name([(x, i), (y, j)]) for i in range(n) for j in range(q)]
    return table, names


def _metacyclic_table(p: int, q: int, d: int) -> tuple:
    if not _is_prime(p) or not _is_prime(q):
        raise InvalidSpec(f"metacyclic parameters {p}, {q} must be prime")
    if not 1 <= d < p:
        raise InvalidSpec(f"metacyclic parameter d={d} must lie in [1, {p})")
    if _mult_order(d, p) != q:
        raise InvalidSpec(
            f"metacyclic parameter d={d} has multiplicative order "
            f"{_mult_order(d, p)} mod {p}, expected {q}"
        )
    return _semidirect_table(p, q, d, 0, "st")


def _perm_list_table(perms: list) -> tuple:
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(pa[x] for x in pb)] for pb in perms] for pa in perms
    ]
    names = [_cycle_name(p) for p in perms]
    return table, names


def _product(factors: list) -> tuple:
    """(table, names) of the direct product of factors, each a (table,
    names) pair, folded from the left: (a, b) has index a * |H| + b and is
    named "(a,b)".

    Row (a, b) joins, for c in G, the block of ids (a c, b d) over d in H,
    a gather of one slice of the product's ids by row b of H; the blocks
    are shared between rows, and so are their ints.
    """
    table, names = factors[0]
    for t, t_names in factors[1:]:
        m = len(t)
        ids = tuple(range(len(table) * m))
        blocks = [[gather(ids[v * m:v * m + m]) for v in range(len(table))]
                  for gather in map(_row_getter, t)]
        table = [tuple(itertools.chain.from_iterable(map(row_b.__getitem__, row_a)))
                 for row_a in table for row_b in blocks]
        names = [f"({x},{y})" for x in names for y in t_names]
    return table, names


def _word_name(parts: list) -> str:
    bits = []
    for sym, exp in parts:
        if exp == 0:
            continue
        bits.append(sym if exp == 1 else f"{sym}^{exp}")
    return " ".join(bits) if bits else "e"


def _cycle_at_0(row: Sequence[int]) -> int:
    """Length of the cycle of row through 0, or 0 if the walk from 0 does
    not come back within len(row) steps (row is not a permutation)."""
    length, x = 1, row[0]
    while x != 0:
        if length == len(row):
            return 0
        x = row[x]
        length += 1
    return length


def _cycles(p: Sequence[int]) -> list:
    """The cycles of the permutation p, fixed points included, each from its
    least point and in the order of those points."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        cycle, x = [], start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = p[x]
        if cycle:
            cycles.append(cycle)
    return cycles


def _cycle_name(p: tuple) -> str:
    cycles = [c for c in _cycles(p) if len(c) > 1]
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "e"


def _perm_sign(p: tuple) -> int:
    return -1 if (len(p) - len(_cycles(p))) % 2 else 1


def _is_prime(n: int) -> bool:
    return _factorize(n) == [(n, 1)]


def _mult_order(d: int, p: int) -> int:
    if d % p == 0:
        raise InvalidSpec(f"{d} is not a unit mod {p}")
    k, x = 1, d % p
    while x != 1:
        x = (x * d) % p
        k += 1
    return k


# ---------------------------------------------------------------------------
# Catalog


def _partitions(n: int) -> list:
    """All partitions of n as descending tuples."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, acc: list):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def _factorize(n: int) -> list:
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            e = 0
            while n % k == 0:
                n //= k
                e += 1
            out.append((k, e))
        k += 1
    if n > 1:
        out.append((n, 1))
    return out


def abelian_specs(n: int) -> list:
    """One spec per abelian isomorphism type of order n (invariant factors)."""
    if n == 1:
        return [GroupSpec.cyclic(1)]
    factorization = _factorize(n)
    per_prime = [
        [(p, part) for part in _partitions(e)] for p, e in factorization
    ]
    specs = []
    for choice in itertools.product(*per_prime):
        width = max(len(part) for _, part in choice)
        factors = []
        for i in range(width):
            f = 1
            for p, part in choice:
                if i < len(part):
                    f *= p ** part[i]
            factors.append(f)
        factors.sort()
        if len(factors) == 1:
            specs.append(GroupSpec.cyclic(factors[0]))
        else:
            specs.append(
                GroupSpec.product(*(GroupSpec.cyclic(f) for f in factors))
            )
    specs.sort(key=str)
    return specs


def catalog_specs(n: int) -> list:
    """Known isomorphism types of order n; complete iff catalog_complete(n)."""
    specs = list(abelian_specs(n))
    if n % 2 == 0 and n // 2 >= 3:
        specs.append(GroupSpec.dihedral(n // 2))
    if n % 4 == 0 and n // 2 >= 4:
        specs.append(GroupSpec.dicyclic(n // 2))
    # nonabelian p*q with q odd; q=2 would duplicate the dihedral entry
    fact = _factorize(n)
    if len(fact) == 2 and fact[0][1] == 1 and fact[1][1] == 1:
        q, p = fact[0][0], fact[1][0]
        if q > 2 and (p - 1) % q == 0:
            d = min(
                dd for dd in range(2, p) if _mult_order(dd, p) == q
            )
            specs.append(GroupSpec.metacyclic(p, q, d))
    for k in range(4, SYMMETRIC_DEGREE_LIMIT + 1):
        if n == _factorial(k):
            specs.append(GroupSpec.symmetric(k))
    for k in range(4, ALTERNATING_DEGREE_LIMIT + 1):
        if n == _factorial(k) // 2:
            specs.append(GroupSpec.alternating(k))
    return specs


def catalog_complete(n: int) -> bool:
    """True when catalog_specs(n) lists every group of order n; the only
    group of prime order p is cyclic:p."""
    return n in COMPLETE_ORDERS or _is_prime(n)


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out
