"""Skew braces extracted from structures.

A skew brace here is one index set carrying two group tables, star and circ,
sharing identity 0 and satisfying the left brace relation

    x o (y * z) = (x o y) * inv(x) * (x o z)

with inv the star inverse.  A structure N on G yields the brace with
circ = G's table and star read off the eta index; conversely the star rows
are themselves a structure on the circ group.  The two-sidedness, inner
stabilizer, and Yang-Baxter content of a structure all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import List, Optional

from .errors import BraceAxiomError, BraidError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _respects,
    _row_getter,
    automorphisms,
    are_isomorphic,
    inner_automorphism,
    subgroup_closure,
)
from .hgs import RegularSubgroup, certify
from .perms import (
    _compose,
    _conjugate_all,
    _invert,
    _normalizes,
    perm_group_from_elements,
)


class SkewBrace:
    """Two compatible group tables on one index set with identity 0."""

    __slots__ = (
        "size",
        "star",
        "circ",
        "star_inverse",
        "circ_inverse",
        "source",
        "circ_group",
        "_star_group",
    )

    def __init__(
        self,
        star,
        circ,
        circ_group: FiniteGroup,
        source: Optional[RegularSubgroup] = None,
    ):
        self.star = tuple(tuple(row) for row in star)
        self.circ = tuple(tuple(row) for row in circ)
        self.size = len(self.star)
        self.circ_group = circ_group
        self.source = source
        self._star_group = None
        self.star_inverse = _inverse_row(self.star)
        self.circ_inverse = _inverse_row(self.circ)

    def star_op(self, a: int, b: int) -> int:
        return self.star[a][b]

    def circ_op(self, a: int, b: int) -> int:
        return self.circ[a][b]

    @property
    def star_group(self) -> FiniteGroup:
        if self._star_group is None:
            self._star_group = FiniteGroup(
                self.star, names=self.circ_group.names
            )
        return self._star_group

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewBrace)
            and self.star == other.star
            and self.circ == other.circ
        )

    def __hash__(self) -> int:
        return hash((self.star, self.circ))

    def __repr__(self) -> str:
        return f"SkewBrace(size={self.size})"

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.brace/1",
            "size": self.size,
            "star": [list(row) for row in self.star],
            "circ": [list(row) for row in self.circ],
        }


def _inverse_row(table) -> tuple:
    n = len(table)
    inv = [0] * n
    for a in range(n):
        row = table[a]
        for b in range(n):
            if row[b] == 0:
                inv[a] = b
                break
        else:
            raise BraceAxiomError(f"element {a} has no inverse")
    return tuple(inv)


def _check_brace_relation(B: SkewBrace) -> None:
    """Left brace relation over all triples; raises with a witness.

    Rows over z: x o (y * z) is circ[x] gathered at star[y], and
    (x o y) * inv(x) * (x o z) is star[(x o y) * inv(x)] gathered at circ[x].
    """
    star = B.star
    at_star = [_row_getter(row) for row in star]
    for x, cx in enumerate(B.circ):
        xi = B.star_inverse[x]
        at_cx = _row_getter(cx)
        for y, cxy in enumerate(cx):
            row = star[star[cxy][xi]]
            if at_star[y](cx) != at_cx(row):
                sy = star[y]
                z = next(z for z, cz in enumerate(cx) if cx[sy[z]] != row[cz])
                raise BraceAxiomError(
                    f"brace relation fails at (x,y,z)=({x},{y},{z})"
                )


def skew_brace_from_tables(
    star, circ, source: Optional[RegularSubgroup] = None, names=None
) -> SkewBrace:
    """Validating factory: both tables must be groups sharing identity 0."""
    if source is not None:
        circ_group = source.group
    else:
        circ_group = FiniteGroup(circ, names=names)
    B = SkewBrace(star, circ, circ_group, source=source)
    # building the star group validates identity, inverses, associativity
    B.star_group
    _check_brace_relation(B)
    return B


def brace_from_subgroup(N: RegularSubgroup) -> SkewBrace:
    """The brace on G with star[a][b] = (eta_a . eta_b)[0] = eta_a[b]."""
    star = tuple(eta.images for eta in N.eta)
    return skew_brace_from_tables(star, N.group.table, source=N)


def subgroup_from_brace(B: SkewBrace) -> RegularSubgroup:
    """The star rows as a structure on the circ group; round-trips exactly."""
    perms = perm_group_from_elements(B.star)
    return certify(B.circ_group, perms)


def _right_relation_at(B: SkewBrace, g: int) -> bool:
    """(y * z) o g = (y o g) * inv(g) * (z o g) for all y, z.

    With col the column z -> z o g, row y compares col gathered at star[y]
    with the star row of (y o g) * inv(g) gathered at col.
    """
    star = B.star
    at_star = [_row_getter(row) for row in star]
    gi = B.star_inverse[g]
    col = tuple(row[g] for row in B.circ)
    at_col = _row_getter(col)
    return all(
        at_star[y](col) == at_col(star[star[yg][gi]])
        for y, yg in enumerate(col)
    )


def is_two_sided(B: SkewBrace) -> bool:
    """Whether the mirrored brace relation holds for every g."""
    return all(_right_relation_at(B, g) for g in range(B.size))


def brace_automorphisms(B: SkewBrace) -> List[GroupHom]:
    """Automorphisms of the circ group that also preserve star."""
    return [
        phi
        for phi in automorphisms(B.circ_group)
        if _respects(phi.images, B.star, B.star)
    ]


def inner_stabilizer(B: SkewBrace) -> Subgroup:
    """The g whose inner circ-automorphism preserves star.

    The orbit of the source structure under right-translation conjugation
    has size |G| divided by the order of this subgroup.
    """
    G = B.circ_group
    members = [
        g
        for g in range(B.size)
        if _respects(inner_automorphism(G, g).images, B.star, B.star)
    ]
    sub = subgroup_closure(G, members)
    if sub.order != len(members):
        raise BraceAxiomError("inner stabilizer failed to close")
    return sub


def rho_fix_criteria(B: SkewBrace, g: int) -> tuple:
    """Three equivalent readings of 'conjugating by rho(g) fixes N'.

    Returns (normalizes, inner_preserves_star, right_relation); a valid
    brace must make them agree at every g.
    """
    N = B.source
    if N is None:
        N = subgroup_from_brace(B)
    G = B.circ_group
    phi = inner_automorphism(G, g).images
    gens = [p.images for p in N.perms.generators]
    normalizes = _normalizes([phi], gens, N.perms.element_set)
    preserves = _respects(phi, B.star, B.star)
    relation = _right_relation_at(B, g)
    return normalizes, preserves, relation


def mixed_inverse_identity(B: SkewBrace) -> bool:
    """inv(gbar) * (gbar o inv(g)) * inv(gbar) = 0 for every g.

    gbar is the circ inverse and inv the star inverse; this is the textbook
    mixed-inverse law every skew brace satisfies.
    """
    star, circ = B.star, B.circ
    sinv, cinv = B.star_inverse, B.circ_inverse
    for g in range(B.size):
        gbar = cinv[g]
        gbi = sinv[gbar]
        if star[star[gbi][circ[gbar][sinv[g]]]][gbi] != 0:
            return False
    return True


def braces_isomorphic(B1: SkewBrace, B2: SkewBrace) -> Optional[GroupHom]:
    """A circ-group isomorphism carrying star to star, if one exists."""
    if B1.size != B2.size:
        return None
    G1, G2 = B1.circ_group, B2.circ_group
    if G1 is G2:
        base = GroupHom(G1, G2, tuple(range(G1.order)))
    else:
        base = are_isomorphic(G1, G2)
        if base is None:
            return None
    for aut in automorphisms(G1):
        images = _compose(base.images, aut.images)
        if _respects(images, B1.star, B2.star):
            return GroupHom(G1, G2, images)
    return None


@dataclass
class BraceComparison:
    """How two structures on one group relate at the brace level."""

    equal: bool
    isomorphic: bool
    subgroup_criterion: bool
    same_criterion: bool

    @property
    def consistent(self) -> bool:
        # isomorphism must match the conjugation criterion over Aut(G,circ),
        # equality the criterion over the star-preserving subgroup of it
        return (
            self.isomorphic == self.subgroup_criterion
            and self.equal == self.same_criterion
        )

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.brace-comparison/1",
            "equal": self.equal,
            "isomorphic": self.isomorphic,
            "subgroup_criterion": self.subgroup_criterion,
            "same_criterion": self.same_criterion,
            "consistent": self.consistent,
        }


def _conjugated_by(N: RegularSubgroup, images) -> frozenset:
    """Element set of phi^-1 . N . phi for an automorphism given by images."""
    return frozenset(
        _conjugate_all((p.images for p in N.perms.elements), _invert(images), images)
    )


def compare_braces(N1: RegularSubgroup, N2: RegularSubgroup) -> BraceComparison:
    """Equality and isomorphism of the braces of two structures on one G.

    The subgroup-level criteria (conjugacy of N1 into N2 by an automorphism
    of G, plain or star-preserving) are computed independently so tests can
    assert they agree with the table-level answers.
    """
    if N1.group is not N2.group:
        raise ValueError("structures live on different groups")
    B1 = brace_from_subgroup(N1)
    B2 = brace_from_subgroup(N2)
    target = N2.perms.element_set
    equal = B1.star == B2.star
    isomorphic = braces_isomorphic(B1, B2) is not None
    subgroup_criterion = any(
        _conjugated_by(N1, phi.images) == target
        for phi in automorphisms(N1.group)
    )
    same_criterion = any(
        _conjugated_by(N1, phi.images) == target
        for phi in brace_automorphisms(B1)
    )
    return BraceComparison(equal, isomorphic, subgroup_criterion, same_criterion)


class YbeMap:
    """A verified set-theoretic Yang-Baxter solution on the brace set."""

    __slots__ = ("size", "left", "right")

    def __init__(self, size: int, left, right):
        self.size = size
        self.left = left      # left[x][y] = first component of r(x, y)
        self.right = right    # right[x][y] = second component

    def __call__(self, x: int, y: int) -> tuple:
        return self.left[x][y], self.right[x][y]

    @property
    def table(self) -> list:
        return [
            [(self.left[x][y], self.right[x][y]) for y in range(self.size)]
            for x in range(self.size)
        ]

    def is_bijective(self) -> bool:
        n = self.size
        seen = {
            (self.left[x][y], self.right[x][y])
            for x in range(n)
            for y in range(n)
        }
        return len(seen) == n * n

    def braid_holds(self) -> bool:
        """(r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on all triples.

        For fixed x, y the three coordinates are compared as rows over z.
        With (u, v) = r(x, y) the left side is (L[u][L[v][z]],
        R[u][L[v][z]], R[v][z]).  With p, q = L[y][z], R[y][z] and
        e = R[x][p] the right side is (L[x][p], L[e][q], R[e][q]); its last
        two coordinates gather the flattened tables at e * n + q.
        """
        L = tuple(map(tuple, self.left))
        R = tuple(map(tuple, self.right))
        n = self.size
        at_left = [_row_getter(row) for row in L]
        flat_l, flat_r = tuple(chain(*L)), tuple(chain(*R))
        for lx, rx in zip(L, R):
            rx_n = tuple(e * n for e in rx)
            for y, at_y in enumerate(at_left):
                u, v = lx[y], rx[y]
                at_v = at_left[v]
                if at_v(L[u]) != at_y(lx):
                    return False
                at_eq = _row_getter(tuple(map(add, at_y(rx_n), R[y])))
                if at_v(R[u]) != at_eq(flat_l) or R[v] != at_eq(flat_r):
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.ybe/1",
            "size": self.size,
            "map": [
                [[self.left[x][y], self.right[x][y]] for y in range(self.size)]
                for x in range(self.size)
            ],
        }


def ybe_map(B: SkewBrace) -> YbeMap:
    """The Yang-Baxter map r(x,y) = (u, circ_inv(u) o x o y), u = inv(x)*(x o y).

    Bijectivity and the braid relation are verified before returning; a
    failure indicates a corrupted brace.
    """
    n = B.size
    star, circ = B.star, B.circ
    sinv, cinv = B.star_inverse, B.circ_inverse
    left = []
    right = []
    for x in range(n):
        xi_row = star[sinv[x]]
        cx = circ[x]
        lrow = []
        rrow = []
        for y in range(n):
            u = xi_row[cx[y]]
            lrow.append(u)
            rrow.append(circ[circ[cinv[u]][x]][y])
        left.append(tuple(lrow))
        right.append(tuple(rrow))
    out = YbeMap(n, tuple(left), tuple(right))
    if not out.is_bijective():
        raise BraidError("Yang-Baxter map is not a bijection of B x B")
    if not out.braid_holds():
        raise BraidError("braid relation fails")
    return out
