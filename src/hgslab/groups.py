"""Finite groups as Cayley tables with 0-based element ids.

Conventions used everywhere in this package:
  * elements of a group of order n are the integers 0..n-1,
  * index 0 is the identity,
  * table[a][b] is the product a*b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import InvalidSpec, OrderTooLarge, UnknownType

# Exhaustive associativity checking is cubic; cap it at small orders.
ASSOCIATIVITY_CHECK_LIMIT = 24

# Orders for which catalog_specs() lists every isomorphism type.
COMPLETE_ORDERS = frozenset(range(1, 16)) | {21}

SYMMETRIC_DEGREE_LIMIT = 5
ALTERNATING_DEGREE_LIMIT = 5

# build_group refuses larger orders before allocating the n^2 table; the
# largest group the tests, verify and the benchmark build is sym:5 (120).
GROUP_ORDER_LIMIT = 1024


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
            return "product:" + ",".join(str(p) for p in self.parts)
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
    def quaternion(n: int = 8) -> "GroupSpec":
        return GroupSpec("quaternion", (n,))

    @staticmethod
    def dicyclic(n: int) -> "GroupSpec":
        """Dicyclic group of order 2n; n must be even."""
        return GroupSpec("dicyclic", (n,))

    @staticmethod
    def elementary_abelian(p: int, k: int) -> "GroupSpec":
        return GroupSpec("elemab", (p, k))

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
    needs a two-sided inverse.  Associativity is checked exhaustively for
    orders up to ASSOCIATIVITY_CHECK_LIMIT.
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
        if check and n <= ASSOCIATIVITY_CHECK_LIMIT:
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
        for b in range(n):
            col = tuple(self.table[a][b] for a in range(n))
            if tuple(sorted(col)) != ident:
                raise InvalidSpec(f"column {b} is not a permutation")
        if self.table[0] != ident:
            raise InvalidSpec("index 0 is not a left identity")
        for a in range(n):
            if self.table[a][0] != a:
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
        """Row (ab) of the table must equal row a gathered at row b."""
        t = self.table
        at_row = [_row_getter(row) for row in t]
        for a, ta in enumerate(t):
            for b, ab in enumerate(ta):
                if t[ab] != at_row[b](ta):
                    c = next(c for c, x in enumerate(t[ab]) if x != ta[t[b][c]])
                    raise InvalidSpec(f"associativity fails at ({a},{b},{c})")

    # -- basic operations

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return self.table[self.table[g][a]][self.inverse[g]]

    def name_of(self, a: int) -> str:
        return self.names[a]

    def elements(self) -> range:
        return range(self.order)

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
        def compute():
            out = []
            for a in range(self.order):
                k, x = 1, a
                while x != 0:
                    x = self.table[x][a]
                    k += 1
                out.append(k)
            return tuple(out)

        return self._memo("orders", compute)

    def element_order(self, a: int) -> int:
        return self.element_orders[a]

    def order_profile(self) -> tuple:
        """Sorted multiset of element orders; an isomorphism invariant."""
        return self._memo("profile", lambda: tuple(sorted(self.element_orders)))

    @property
    def is_abelian(self) -> bool:
        def compute():
            t = self.table
            return all(
                t[a][b] == t[b][a]
                for a in range(self.order)
                for b in range(a + 1, self.order)
            )

        return self._memo("abelian", compute)

    def center(self) -> tuple:
        def compute():
            t = self.table
            rng = range(self.order)
            return tuple(
                a for a in rng if all(t[a][b] == t[b][a] for b in rng)
            )

        return self._memo("center", compute)

    def generating_set(self) -> tuple:
        """Greedy small generating set, highest element order first."""

        def compute():
            n = self.order
            orders = self.element_orders
            chosen: list[int] = []
            current = {0}
            while len(current) < n:
                best = max(
                    (x for x in range(n) if x not in current),
                    key=lambda x: (orders[x], -x),
                )
                chosen.append(best)
                current = _closure_set(self.table, chosen)
            return tuple(chosen)

        return self._memo("gens", compute)

    def bfs_tree(self) -> tuple:
        """Elements in BFS order over the generating set.

        Returns (order, parent, gen_index); element = parent * gens[gen_index].
        Used to extend generator images to full maps.
        """

        def compute():
            gens = self.generating_set()
            t = self.table
            parent = [-1] * self.order
            gidx = [-1] * self.order
            seen = [False] * self.order
            seen[0] = True
            out = [0]
            for x in out:
                for k, g in enumerate(gens):
                    y = t[x][g]
                    if not seen[y]:
                        seen[y] = True
                        parent[y] = x
                        gidx[y] = k
                        out.append(y)
            return tuple(out), tuple(parent), tuple(gidx)

        return self._memo("bfs", compute)

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


def _respects(images: Sequence[int], src_rows, dst_rows) -> bool:
    """Whether images[src[a][b]] == dst[images[a]][images[b]] for all a, b.

    Row a is compared whole: images gathered at src[a] against
    dst[images[a]] gathered at images.
    """
    at_images = _row_getter(images)
    for a, row in enumerate(src_rows):
        if _row_getter(row)(images) != at_images(dst_rows[images[a]]):
            return False
    return True


def _closure_set(table: Sequence[Sequence[int]], gens: Iterable[int]) -> set:
    """Subgroup closure of a set of element ids inside a Cayley table."""
    out = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Subgroups


class Subgroup:
    """A subgroup of a FiniteGroup, kept as a sorted element tuple."""

    __slots__ = ("parent", "elements", "generators", "element_set", "_abstract")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int], generators=()):
        self.parent = parent
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators)
        self.element_set = frozenset(self.elements)
        self._abstract = None
        if not self.elements or self.elements[0] != 0:
            raise InvalidSpec("a subgroup must contain the identity")

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
        G = self.parent
        elems = set(self.elements)
        return all(
            G.conj(a, g) in elems for a in self.elements for g in range(G.order)
        )

    def as_group(self) -> tuple:
        """The subgroup as a FiniteGroup on positions, with the element list.

        Positions follow the sorted element order, so the identity lands at 0.
        """
        if self._abstract is None:
            G = self.parent
            elems = self.elements
            pos = {e: i for i, e in enumerate(elems)}
            table = [
                [pos[G.table[a][b]] for b in elems] for a in elems
            ]
            names = [G.names[e] for e in elems]
            sub = FiniteGroup(table, names=names, check=True)
            self._abstract = (sub, elems)
        return self._abstract


def subgroup_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing gens."""
    gens = sorted(set(gens) - {0})
    for g in gens:
        if not 0 <= g < G.order:
            raise InvalidSpec(f"element id {g} out of range")
    return Subgroup(G, _closure_set(G.table, gens), generators=tuple(gens))


def all_subgroups(G: FiniteGroup, limit: int = 64) -> list:
    """Every subgroup of G, found by closing one added generator at a time."""
    if G.order > limit:
        raise InvalidSpec(f"subgroup lattice restricted to order <= {limit}")

    def compute():
        found = {}
        trivial = subgroup_closure(G, ())
        frontier = [trivial]
        found[trivial.elements] = trivial
        while frontier:
            nxt = []
            for sub in frontier:
                inside = set(sub.elements)
                for x in range(1, G.order):
                    if x in inside:
                        continue
                    bigger = subgroup_closure(G, set(sub.generators) | {x})
                    if bigger.elements not in found:
                        found[bigger.elements] = bigger
                        nxt.append(bigger)
            frontier = nxt
        return sorted(found.values(), key=lambda s: (s.order, s.elements))

    return G._memo("all_subgroups", compute)


def conjugacy_classes(G: FiniteGroup) -> list:
    """Conjugacy classes as sorted tuples, ordered by smallest member."""

    def compute():
        seen = [False] * G.order
        classes = []
        for a in range(G.order):
            if seen[a]:
                continue
            cls = {G.conj(a, g) for g in range(G.order)}
            for x in cls:
                seen[x] = True
            classes.append(tuple(sorted(cls)))
        return sorted(classes, key=lambda c: c[0])

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
    """All normal subgroups, built by closing unions of conjugacy classes."""

    def compute():
        classes = conjugacy_classes(G)
        trivial = subgroup_closure(G, ())
        found = {trivial.elements: trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for sub in frontier:
                inside = set(sub.elements)
                for cls in classes:
                    if cls[0] == 0 or cls[0] in inside:
                        continue
                    bigger = subgroup_closure(G, inside | set(cls))
                    if bigger.elements not in found:
                        found[bigger.elements] = bigger
                        nxt.append(bigger)
            frontier = nxt
        out = sorted(found.values(), key=lambda s: (s.order, s.elements))
        return [s for s in out if s.is_normal()]

    return G._memo("normal_subgroups", compute)


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

    def is_bijective(self) -> bool:
        return (
            self.domain.order == self.codomain.order
            and len(set(self.images)) == self.domain.order
        )

    def inverse_hom(self) -> "GroupHom":
        if not self.is_bijective():
            raise InvalidSpec("map is not bijective")
        inv = [0] * self.domain.order
        for a, b in enumerate(self.images):
            inv[b] = a
        return GroupHom(self.codomain, self.domain, inv)

    def image_elements(self) -> tuple:
        return tuple(sorted(set(self.images)))


def is_homomorphism(G: FiniteGroup, H: FiniteGroup, images: Sequence[int]) -> bool:
    """Exhaustive check that images respects the two multiplication tables."""
    img = tuple(images)
    return img[0] == 0 and _respects(img, G.table, H.table)


def extend_generator_images(
    G: FiniteGroup, gens: Sequence[int], gen_images: Sequence[int], H: FiniteGroup
) -> Optional[tuple]:
    """Extend images of a generating set to a full homomorphism, or None.

    The candidate map is built along the BFS tree of G and then verified
    against the whole table, which rejects inconsistent generator images.
    """
    order, parent, gidx = G.bfs_tree()
    img = [0] * G.order
    th = H.table
    for x in order:
        if x == 0:
            continue
        img[x] = th[img[parent[x]]][gen_images[gidx[x]]]
    return tuple(img) if is_homomorphism(G, H, img) else None


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


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupHom]:
    """An isomorphism G -> H, or None.

    Backtracks over generator images filtered by order and class size.
    """
    if G.order != H.order or G.order_profile() != H.order_profile():
        return None
    gens = G.generating_set()
    cand = [_iso_candidates(G, H, g) for g in gens]
    orders_h = H.element_orders
    for combo in itertools.product(*cand):
        # cheap pairwise product-order screen before the full table check
        ok = True
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                prod_g = G.table[gens[i]][gens[j]]
                prod_h = H.table[combo[i]][combo[j]]
                if G.element_order(prod_g) != orders_h[prod_h]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        img = extend_generator_images(G, gens, combo, H)
        if img is not None and len(set(img)) == G.order:
            return GroupHom(G, H, img)
    return None


def automorphisms(G: FiniteGroup) -> list:
    """All automorphisms of G, sorted by image array."""

    def compute():
        gens = G.generating_set()
        cand = [_iso_candidates(G, G, g) for g in gens]
        orders = G.element_orders
        out = []
        for combo in itertools.product(*cand):
            ok = True
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    if (
                        orders[G.table[gens[i]][gens[j]]]
                        != orders[G.table[combo[i]][combo[j]]]
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            img = extend_generator_images(G, gens, combo, G)
            if img is not None and len(set(img)) == G.order:
                out.append(GroupHom(G, G, img))
        out.sort(key=lambda h: h.images)
        return out

    return G._memo("automorphisms", compute)


def inner_automorphism(G: FiniteGroup, g: int) -> GroupHom:
    """Conjugation x -> g x g^-1 as a GroupHom."""
    return GroupHom(G, G, tuple(G.conj(x, g) for x in range(G.order)))


# ---------------------------------------------------------------------------
# Builders


def build_group(spec) -> FiniteGroup:
    """Construct (and cache) the group described by spec (GroupSpec or text)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    cached = _GROUP_CACHE.get(spec)
    if cached is not None:
        return cached
    if _spec_order(spec) > GROUP_ORDER_LIMIT:
        raise OrderTooLarge(
            f"{spec} has order above the limit of {GROUP_ORDER_LIMIT}"
        )
    G = _build_group_uncached(spec)
    _GROUP_CACHE[spec] = G
    return G


_GROUP_CACHE: dict = {}


def _spec_order(spec: GroupSpec) -> int:
    """The order spec asks for, capped at GROUP_ORDER_LIMIT + 1.

    Parameters the builders reject give 0, so their own errors stay in
    charge; sym, alt and quaternion are bounded by their own limits.
    """
    kind, params = spec.kind, spec.params
    if kind == "product":
        factors = [_spec_order(part) for part in spec.parts]
    elif kind == "elemab":
        factors = params[:1] * min(max(params[1], 0), GROUP_ORDER_LIMIT.bit_length())
    else:
        factors = {"cyclic": params, "dihedral": (2,) + params,
                   "dicyclic": (2,) + params, "metacyclic": params[:2]}.get(kind, (0,))
    order = 1
    for f in factors:
        order = min(order * max(f, 0), GROUP_ORDER_LIMIT + 1)
    return order


def _build_group_uncached(spec: GroupSpec) -> FiniteGroup:
    kind = spec.kind
    if kind == "cyclic":
        (n,) = spec.params
        if n < 1:
            raise InvalidSpec("cyclic order must be positive")
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        names = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
        return FiniteGroup(table, names=names, spec=spec)

    if kind == "dihedral":
        (n,) = spec.params
        if n < 1:
            raise InvalidSpec("dihedral parameter must be positive")
        return FiniteGroup(*_dihedral_table(n), spec=spec)

    if kind == "metacyclic":
        p, q, d = spec.params
        return FiniteGroup(*_metacyclic_table(p, q, d), spec=spec)

    if kind == "sym":
        (n,) = spec.params
        if not 1 <= n <= SYMMETRIC_DEGREE_LIMIT:
            raise InvalidSpec(
                f"sym degree must be between 1 and {SYMMETRIC_DEGREE_LIMIT}"
            )
        perms = sorted(itertools.permutations(range(n)))
        return FiniteGroup(*_perm_list_table(perms), spec=spec)

    if kind == "alt":
        (n,) = spec.params
        if not 3 <= n <= ALTERNATING_DEGREE_LIMIT:
            raise InvalidSpec(
                f"alt degree must be between 3 and {ALTERNATING_DEGREE_LIMIT}"
            )
        perms = sorted(
            p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1
        )
        return FiniteGroup(*_perm_list_table(perms), spec=spec)

    if kind == "quaternion":
        (n,) = spec.params
        if n != 8:
            raise InvalidSpec("quaternion group is only defined for order 8")
        return FiniteGroup(*_dicyclic_table(4), spec=spec)

    if kind == "dicyclic":
        (n,) = spec.params
        if n % 2 != 0:
            raise InvalidSpec("dicyclic parameter must be even")
        if n < 4:
            raise InvalidSpec("dicyclic parameter must be at least 4")
        return FiniteGroup(*_dicyclic_table(n), spec=spec)

    if kind == "elemab":
        p, k = spec.params
        if not _is_prime(p):
            raise InvalidSpec(f"{p} is not prime")
        if k < 1:
            raise InvalidSpec("rank must be positive")
        n = p**k
        digits = [_to_digits(x, p, k) for x in range(n)]
        table = [
            [
                _from_digits([(da + db) % p for da, db in zip(digits[a], digits[b])], p)
                for b in range(n)
            ]
            for a in range(n)
        ]
        names = ["".join(str(d) for d in dig) for dig in digits]
        return FiniteGroup(table, names=names, spec=spec)

    if kind == "product":
        groups = [build_group(part) for part in spec.parts]
        G = groups[0]
        for H in groups[1:]:
            G = _direct_product(G, H)
        return FiniteGroup(G.table, names=G.names, spec=spec)

    raise InvalidSpec(f"unknown group kind {kind!r}")


def _dihedral_table(n: int) -> tuple:
    # elements r^i s^j with index 2*i + j
    order = 2 * n

    def idx(i: int, j: int) -> int:
        return 2 * (i % n) + (j % 2)

    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(2):
            for k in range(n):
                for l in range(2):
                    ii = (i + (k if j == 0 else -k)) % n
                    table[idx(i, j)][idx(k, l)] = idx(ii, j + l)
    names = []
    for i in range(n):
        for j in range(2):
            names.append(_word_name([("r", i % n), ("s", j % 2)]))
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
    order = p * q
    powers = [pow(d, j, p) for j in range(q)]

    def idx(i: int, j: int) -> int:
        return q * (i % p) + (j % q)

    table = [[0] * order for _ in range(order)]
    for i in range(p):
        for j in range(q):
            dj = powers[j]
            for k in range(p):
                for l in range(q):
                    table[idx(i, j)][idx(k, l)] = idx(i + k * dj, j + l)
    names = []
    for i in range(p):
        for j in range(q):
            names.append(_word_name([("s", i), ("t", j)]))
    return table, names


def _dicyclic_table(n: int) -> tuple:
    # order 2n, elements a^i b^j with index 2*i + j, b^2 = a^(n/2)
    order = 2 * n
    half = n // 2

    def idx(i: int, j: int) -> int:
        return 2 * (i % n) + (j % 2)

    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(2):
            for k in range(n):
                for l in range(2):
                    ii = i + (k if j == 0 else -k)
                    if j == 1 and l == 1:
                        ii += half
                    table[idx(i, j)][idx(k, l)] = idx(ii, j + l)
    names = []
    for i in range(n):
        for j in range(2):
            names.append(_word_name([("a", i % n), ("b", j % 2)]))
    return table, names


def _perm_list_table(perms: list) -> tuple:
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(pa[x] for x in pb)] for pb in perms] for pa in perms
    ]
    names = [_cycle_name(p) for p in perms]
    return table, names


def _direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    # pair (a, b) has index a * |H| + b
    nh = H.order
    order = G.order * nh
    table = [[0] * order for _ in range(order)]
    for a in range(G.order):
        for b in range(nh):
            row = table[a * nh + b]
            ga = G.table[a]
            hb = H.table[b]
            for c in range(G.order):
                gac = ga[c] * nh
                for dd in range(nh):
                    row[c * nh + dd] = gac + hb[dd]
    names = [
        f"({G.names[a]},{H.names[b]})" for a in range(G.order) for b in range(nh)
    ]
    return FiniteGroup(table, names=names, check=False)


def _word_name(parts: list) -> str:
    bits = []
    for sym, exp in parts:
        if exp == 0:
            continue
        bits.append(sym if exp == 1 else f"{sym}^{exp}")
    return " ".join(bits) if bits else "e"


def _cycle_name(p: tuple) -> str:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        cycles.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def _perm_sign(p: tuple) -> int:
    sign = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _mult_order(d: int, p: int) -> int:
    if d % p == 0:
        raise InvalidSpec(f"{d} is not a unit mod {p}")
    k, x = 1, d % p
    while x != 1:
        x = (x * d) % p
        k += 1
    return k


def _to_digits(x: int, p: int, k: int) -> list:
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return list(reversed(out))


def _from_digits(digits: list, p: int) -> int:
    x = 0
    for d in digits:
        x = x * p + d
    return x


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
    return n in COMPLETE_ORDERS


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out
