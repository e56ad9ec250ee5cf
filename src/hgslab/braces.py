"""Skew braces extracted from structures.

A skew brace here is two groups on one index set, star and circ, sharing
identity 0 and satisfying the left brace relation

    x o (y * z) = (x o y) * inv(x) * (x o z)

with inv the star inverse.  A structure N on G yields the brace with
circ = G and star the group whose table is the eta index, taken as it
stands: the gate of the brace relation confirms it is a group table, and
only tables from outside (skew_brace_from_tables) build checked groups.
Conversely the star rows are themselves a structure on the circ group.
The table laws (brace relation, two-sidedness, Yang-Baxter actions) are
decided on the circ generators, and a full scan runs only to name the
witness of a rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, getitem
from typing import List, Optional

from .errors import BraceAxiomError, BraidError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _acts,
    _associative,
    _columns,
    _respects,
    _row_getter,
    automorphisms,
    are_isomorphic,
    inner_automorphism,
    subgroup_closure,
)
from .hgs import RegularSubgroup, certify, structure_group
from .perms import (
    PermGroup,
    _compose,
    _escape,
    _invert,
)


class SkewBrace:
    """Two groups on one index set with identity 0: star and circ."""

    __slots__ = ("star_group", "circ_group", "source", "size",
                 "star", "circ", "star_inverse", "circ_inverse")

    def __init__(
        self,
        star_group: FiniteGroup,
        circ_group: FiniteGroup,
        source: Optional[RegularSubgroup] = None,
    ):
        self.star_group = star_group
        self.circ_group = circ_group
        self.source = source
        # the groups' own tables and inverse rows, not copies
        self.size = circ_group.order
        self.star, self.star_inverse = star_group.table, star_group.inverse
        self.circ, self.circ_inverse = circ_group.table, circ_group.inverse

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


def _lambda_rows(B: SkewBrace) -> tuple:
    """lambda_x(y) = inv(x) * (x o y): star[inv(x)] gathered at circ[x]."""
    star, sinv = B.star, B.star_inverse
    return tuple(_row_getter(cx)(star[sinv[x]]) for x, cx in enumerate(B.circ))


def _check_brace_relation(B: SkewBrace) -> None:
    """Left brace relation; _brace_relation_scan decides what this rejects.
    With star a group (identity row 0, inv(x) * x = 0, Light's test) it
    holds iff lambda is a left action of circ: at z = y^-1 o w, lambda_(x o
    y)(z) = lambda_x lambda_y(z) reads x o (inv(y) * w) = x * inv(x o y) *
    (x o w), and w = 0 gives x * inv(x o y)."""
    star = B.star
    if (star[0] == tuple(range(B.size))
            and all(star[xi][x] == 0 for x, xi in enumerate(B.star_inverse))
            and _associative(star)
            and _acts(_lambda_rows(B), B.circ, B.circ_group.generating_set())):
        return
    _brace_relation_scan(B)


def _brace_relation_scan(B: SkewBrace) -> None:
    """Raises at the first failing (x,y,z), comparing rows over z: circ[x]
    gathered at star[y] and star[(x o y) * inv(x)] gathered at circ[x]."""
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


def skew_brace_from_tables(star, circ, names=None) -> SkewBrace:
    """Validating factory for tables from outside: both must be group
    tables of one order sharing identity 0, and satisfy the brace relation."""
    if len(star) != len(circ):
        raise BraceAxiomError(
            f"star table has order {len(star)}, circ table has order {len(circ)}"
        )
    B = SkewBrace(FiniteGroup(star, names=names), FiniteGroup(circ, names=names))
    _check_brace_relation(B)
    return B


def brace_from_subgroup(N: RegularSubgroup) -> SkewBrace:
    """The brace on G with star[a][b] = (eta_a . eta_b)[0] = eta_a[b].

    eta builds no checked group; the gate of the brace relation confirms
    that it is a group table.
    """
    B = SkewBrace(structure_group(N), N.group, source=N)
    _check_brace_relation(B)
    return B


def subgroup_from_brace(B: SkewBrace) -> RegularSubgroup:
    """The star rows as a structure on the circ group; round-trips exactly."""
    perms = PermGroup(B.star)
    return certify(B.circ_group, perms)


def _right_relation_at(B: SkewBrace, g: int) -> bool:
    """(y * z) o g = (y o g) * inv(g) * (z o g) for all y, z.

    With col the column z -> z o g, row y compares col gathered at star[y]
    with the star row of (y o g) * inv(g) gathered at col.
    """
    star = B.star
    gi = B.star_inverse[g]
    col = tuple(row[g] for row in B.circ)
    at_col = _row_getter(col)
    return all(
        _row_getter(star[y])(col) == at_col(star[star[yg][gi]])
        for y, yg in enumerate(col)
    )


def is_two_sided(B: SkewBrace) -> bool:
    """The mirrored brace relation at the circ generators.  The g where it
    holds are closed under o: expand (y * z) o (g o h) with it at h, which
    on the pair (g, g^-1) gives inv(g o h) = inv(h) * (g^-1 o h) * inv(h)."""
    return all(_right_relation_at(B, g) for g in B.circ_group.generating_set())


def brace_automorphisms(B: SkewBrace) -> List[GroupHom]:
    """Automorphisms of the circ group that also preserve star."""
    return [
        phi
        for phi in automorphisms(B.circ_group)
        if _respects(phi.images, B.star_group, B.star_group)
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
        if _respects(inner_automorphism(G, g).images, B.star_group, B.star_group)
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
    inn = (phi, inner_automorphism(G, G.inverse[g]).images)
    normalizes = _escape([inn], N.perms.generators, N.perms.element_set) is None
    preserves = _respects(phi, B.star_group, B.star_group)
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
        if _respects(images, B1.star_group, B2.star_group):
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


def compare_braces(N1: RegularSubgroup, N2: RegularSubgroup) -> BraceComparison:
    """Equality and isomorphism of the braces of two structures on one G.

    The subgroup-level criteria (conjugacy of N1 into N2 by an automorphism
    of G, plain or star-preserving) are computed independently so tests can
    assert they agree with the table-level answers.  phi^-1 . N1 . phi is
    generated by the conjugates of N1's generators, so it is N2, of the same
    order, once those lie in N2; no conjugate is built.  The braces are
    read from the certified eta tables without checking the brace relation.
    """
    if N1.group is not N2.group:
        raise ValueError("structures live on different groups")
    B1 = SkewBrace(structure_group(N1), N1.group, source=N1)
    B2 = SkewBrace(structure_group(N2), N2.group, source=N2)
    probes, target = N1.perms.generators, N2.perms.element_set

    def carries(phis) -> bool:
        pairs = ((_invert(phi.images), phi.images) for phi in phis)
        return any(_escape([pq], probes, target) is None for pq in pairs)

    equal = B1.star == B2.star
    isomorphic = braces_isomorphic(B1, B2) is not None
    subgroup_criterion = carries(automorphisms(N1.group))
    same_criterion = carries(brace_automorphisms(B1))
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

    def is_bijective(self) -> bool:
        """Whether the n^2 pairs r(x, y) are distinct, read as codes
        u*n + v, the u*n gathered from one tuple of row starts."""
        n = self.size
        row_starts = tuple(range(0, n * n, n))
        u_n = _row_getter(tuple(chain(*self.left)))(row_starts)
        return len(set(map(add, u_n, chain(*self.right)))) == n * n

    def braid_holds(self) -> bool:
        """(r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on all triples.

        For fixed x, y the three coordinates are compared as rows over z.
        With (u, v) = r(x, y) the left side is (L[u][L[v][z]],
        R[u][L[v][z]], R[v][z]).  With p, q = L[y][z], R[y][z] and
        e = R[x][p] the right side is (L[x][p], L[e][q], R[e][q]); its last
        two coordinates gather the flattened tables at e * n + q.  ybe_map
        runs it only on maps _actions_hold rejects, so it decides rejections.
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


def _actions_hold(r: YbeMap, circ_group: FiniteGroup) -> bool:
    """Whether sigma_x = left[x] and tau_y = column y of right are a left
    and a right action of circ_group: identity rows 0, then _acts at its
    generators on the rows of left and on the columns of right."""
    ident, gens = tuple(range(r.size)), circ_group.generating_set()
    L, cols = r.left, tuple(zip(*r.right))
    return (L[0] == ident and cols[0] == ident
            and _acts(L, circ_group.table, gens)
            and _acts(cols, _columns(circ_group), gens))


def ybe_map(B: SkewBrace) -> YbeMap:
    """The Yang-Baxter map r(x,y) = (u, circ_inv(u) o x o y), u = inv(x)*(x o y).

    Bijectivity and the braid relation are verified before returning; a
    failure indicates a corrupted brace.  r(x,y) = (sigma_x(y), tau_y(x))
    keeps x o y = sigma_x(y) o tau_y(x), so a left action sigma and a right
    action tau of the circ group give the braid relation (Lu-Yan-Zhu): it is
    accepted when _actions_hold, and braid_holds decides the rest.

    Row x of right reads circ_inv(u) o (x o y) over y, u = left[x][y]: the
    circ rows of the circ inverses, gathered at left[x], each read at its
    entry of row x of circ.
    """
    circ = B.circ
    left = _lambda_rows(B)
    inverse_rows = _row_getter(B.circ_inverse)(circ)
    right = tuple(
        tuple(map(getitem, _row_getter(lx)(inverse_rows), cx))
        for lx, cx in zip(left, circ)
    )
    out = YbeMap(B.size, left, right)
    if not out.is_bijective():
        raise BraidError("Yang-Baxter map is not a bijection of B x B")
    if not (_actions_hold(out, B.circ_group) or out.braid_holds()):
        raise BraidError("braid relation fails")
    return out
