"""Builders that produce Hopf-Galois structures from group data.

The bridge is the holomorph embedding: a structure of type M on G is the
same thing as an injective homomorphism of G into Hol(M) whose image acts
regularly on M.  On top of that sit three concrete factories: fixed point
free pairs of homomorphisms, endomorphisms with abelian image, and
structures induced from a subgroup with a normal complement.  Every factory
routes its output through hgs's certification (certify, or _certified for
a table built in eta order), so a malformed input cannot produce an
uncertified structure.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Optional, Sequence

from .errors import ConstructionError, HgsError, InvalidSpec, UnsupportedOrder
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _columns,
    _cycle_at_0,
    _generator_maps,
    _greedy_join,
    _order_walk,
    _refuse_large_search,
    _respects,
    _row_getter,
    are_isomorphic,
    catalog_complete,
    catalog_specs,
    inner_automorphism,
    is_homomorphism,
)
from .hgs import (
    RegularSubgroup,
    _certified,
    _embedding_sets,
    _relabel,
    _structure,
    certify,
    structure_group,
)
from .perms import (
    CosetSpace,
    PermGroup,
    _compose,
    _conjugate_all,
    _invert,
    _escape,
    _left_translations,
    in_holomorph,
    left_translation,
)
from .rho import _is_conjugate


# ---------------------------------------------------------------------------
# Embeddings into the holomorph


class HolEmbedding:
    """An injective homomorphism of G into Hol(M) with regular image.

    beta[g] is a permutation of M; regularity means g -> beta[g][0] is a
    bijection onto M.  Instances are built through hol_embedding, which
    checks all of this.
    """

    __slots__ = ("source", "target", "beta")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, beta):
        self.source = source
        self.target = target
        self.beta = tuple(beta)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HolEmbedding)
            and self.source is other.source
            and self.target is other.target
            and self.beta == other.beta
        )

    def __hash__(self) -> int:
        return hash((id(self.source), id(self.target), self.beta))

    def __repr__(self) -> str:
        return (
            f"HolEmbedding(|G|={self.source.order}, "
            f"target={self.target.spec or self.target.order})"
        )

    def precompose(self, phi: GroupHom) -> "HolEmbedding":
        """The embedding g -> beta(phi(g)); phi must be an automorphism."""
        if phi.domain is not self.source or phi.codomain is not self.source:
            raise ConstructionError("phi must be an automorphism of the source")
        return hol_embedding(
            self.source, self.target, [self.beta[phi.images[g]] for g in range(self.source.order)]
        )

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.embedding/1",
            "source": str(self.source.spec) if self.source.spec else None,
            "target": str(self.target.spec) if self.target.spec else None,
            "beta": [list(b) for b in self.beta],
        }


def hol_embedding(G: FiniteGroup, M: FiniteGroup, beta) -> HolEmbedding:
    """Validate and wrap an embedding given by its image permutations.

    Checks, in order: shape, the homomorphism property, injectivity,
    regularity at the base point, and holomorph membership (beta(g) must
    factor as translation followed by automorphism).  As in _respects, the
    law is checked at h in G.generating_set(), naming the first failing
    (g, h) by g; each beta(g) is then a product of the generators' images,
    and only those are tested for membership, Hol(M) being a group.
    """
    n = G.order
    if M.order != n:
        raise ConstructionError("source and target must have equal order")
    rows = [tuple(b) for b in beta]
    if len(rows) != n:
        raise ConstructionError("beta must assign one permutation per element")
    for row in rows:
        if len(row) != n or set(row) != set(range(n)):
            raise ConstructionError("beta images must be permutations of M")
    tg, gens = G.table, G.generating_set() or (0,)
    for g, bg in enumerate(rows):
        for h in gens:
            if rows[tg[g][h]] != _compose(bg, rows[h]):
                raise ConstructionError(
                    f"beta is not a homomorphism at ({g}, {h})"
                )
    if len(set(rows)) != n:
        raise ConstructionError("beta is not injective")
    base = [row[0] for row in rows]
    if len(set(base)) != n:
        raise ConstructionError("embedding image is not regular at the base point")
    for g in gens:
        if not in_holomorph(M, rows[g]):
            raise ConstructionError(
                f"beta({g}) does not factor as translation times automorphism"
            )
    return HolEmbedding(G, M, rows)


def to_hol_embedding(
    N: RegularSubgroup,
    target: Optional[FiniteGroup] = None,
    iota: Optional[Sequence[int]] = None,
) -> HolEmbedding:
    """The embedding behind a structure, for a chosen identification iota.

    iota[mu] names the member eta_{iota[mu]} that the abstract element mu
    maps to; it must be an isomorphism from the target onto the structure.
    When omitted, an isomorphism is searched for (target defaults to the
    structure's own eta-indexed group).
    """
    G = N.group
    n = G.order
    star = structure_group(N)
    if target is None:
        if iota is None:
            target, iota = star, tuple(range(n))
        else:
            target = star
    if iota is None:
        iso = are_isomorphic(target, star)
        if iso is None:
            raise ConstructionError("target group is not isomorphic to the structure")
        iota = iso.images
    iota = tuple(iota)
    if sorted(iota) != list(range(n)):
        raise ConstructionError("iota is not a bijection")
    if not _respects(iota, target, star):
        raise ConstructionError("iota is not an isomorphism onto the structure")
    beta = _conjugate_all(G.table, _invert(iota), iota)
    return hol_embedding(G, target, beta)


def from_hol_embedding(emb: HolEmbedding) -> RegularSubgroup:
    """The structure behind an embedding: conjugate the left translations
    of the target back to Perm(G) along the base point bijection
    g -> beta(g)[0], which must be a bijection G -> M (else NotRegular)."""
    M = emb.target
    eta, gens = _relabel(M.table, lambda: M.element_orders, [x[0] for x in emb.beta])
    return _certified(emb.source, eta, gens(), type_label=M.spec)


def embedding_conjugation_check(emb: HolEmbedding, g: int) -> bool:
    """Precomposing with conjugation by g^-1 tracks rho-conjugation.

    from_hol_embedding(beta . inn(g^-1)) must equal the rho-conjugate by g
    of from_hol_embedding(beta).
    """
    G = emb.source
    twisted = emb.precompose(inner_automorphism(G, G.inverse[g]))
    return _is_conjugate(from_hol_embedding(emb), g, from_hol_embedding(twisted))


# ---------------------------------------------------------------------------
# Fixed point free pairs


def fpf_check(f1: GroupHom, f2: GroupHom) -> bool:
    """True when the homomorphisms agree only at the identity."""
    if f1.domain is not f2.domain or f1.codomain is not f2.codomain:
        raise ConstructionError("the pair must share domain and codomain")
    if f1.domain.order != f1.codomain.order:
        raise ConstructionError("domain and codomain must have equal order")
    a, b = f1.images, f2.images
    return all(a[h] != b[h] for h in range(1, len(a)))


def fpf_embedding(f1: GroupHom, f2: GroupHom) -> HolEmbedding:
    """The embedding h -> lambda(f1(h)) . rho(f2(h)) on the shared target."""
    for f in (f1, f2):
        if not is_homomorphism(f.domain, f.codomain, f.images):
            raise ConstructionError("both factors must be homomorphisms")
    if not fpf_check(f1, f2):
        raise ConstructionError("the pair is not fixed point free")
    M = f1.codomain
    tm, inv, columns = M.table, M.inverse, _columns(M)
    # rho(f2(h)) sends m to m . f2(h)^-1, column f2(h)^-1 of the table
    beta = [_compose(tm[a], columns[inv[b]])
            for a, b in zip(f1.images, f2.images)]
    return hol_embedding(f1.domain, M, beta)


def hgs_from_fpf(f1: GroupHom, f2: GroupHom) -> RegularSubgroup:
    return from_hol_embedding(fpf_embedding(f1, f2))


def fpf_transport_check(f1: GroupHom, f2: GroupHom, g: int) -> bool:
    """Precomposing both factors with inn(g) lands on the rho-conjugate by
    g^-1 of the original structure."""
    G = f1.domain
    phi = inner_automorphism(G, g)
    twisted = hgs_from_fpf(f1.compose(phi), f2.compose(phi))
    return _is_conjugate(hgs_from_fpf(f1, f2), G.inverse[g], twisted)


# ---------------------------------------------------------------------------
# Abelian maps


class AbelianMap:
    """An endomorphism whose image is abelian."""

    __slots__ = ("hom",)

    def __init__(self, hom: GroupHom):
        if hom.domain is not hom.codomain:
            raise ConstructionError("an abelian map is an endomorphism")
        if not is_homomorphism(hom.domain, hom.codomain, hom.images):
            raise ConstructionError("the map is not a homomorphism")
        G = hom.domain
        if not _commute(G, [hom.images[g] for g in G.generating_set()]):
            raise ConstructionError("the image is not abelian")
        self.hom = hom

    @property
    def group(self) -> FiniteGroup:
        return self.hom.domain

    @property
    def images(self) -> tuple:
        return self.hom.images

    def __call__(self, a: int) -> int:
        return self.hom.images[a]

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianMap) and self.hom == other.hom

    def __hash__(self) -> int:
        return hash(self.hom)

    def __repr__(self) -> str:
        return f"AbelianMap({self.hom.images})"

    def to_json(self) -> dict:
        return {"schema": "hgslab.abelian_map/1", "images": list(self.hom.images)}


def _commute(G: FiniteGroup, xs) -> bool:
    """Whether the ids xs commute pairwise in G."""
    return all(G.table[a][b] == G.table[b][a] for a, b in itertools.combinations(xs, 2))


def _derived_subgroup(G: FiniteGroup) -> set:
    """The ids of G' = <[a, s] : a in G, s in G.generating_set()>, where
    [a, s] = a s a^-1 s^-1 = (a s)(s a)^-1.

    The subgroup is normal, as x [y, z] x^-1 = [x y, z] [x, z]^-1, and
    G/G' is abelian, the generators commuting with every a modulo it; so
    it is the derived subgroup.  n k table lookups and one _greedy_join.
    """
    t, inv, gens = G.table, G.inverse, G.generating_set()
    return _greedy_join(t, (t[t[a][s]][inv[t[s][a]]]
                            for a in range(G.order) for s in gens))[1]


def abelian_maps(G: FiniteGroup) -> list:
    """All endomorphisms of G with abelian image, sorted by image array.

    Backtracks over generator images.  An abelian image kills the derived
    subgroup G', so a generator s can only map to an element whose order
    divides that of the coset s G' (on sym:5, 26 candidates per generator
    in place of the 66 whose order divides 6).  The image is generated by
    the generator images, so it is abelian exactly when they commute
    pairwise; each prefix of picks is tested before it spreads.  Refused
    before the backtrack past AUTOMORPHISM_SEARCH_LIMIT choices of
    generator images, counted on these candidate lists.
    """
    t, orders = G.table, G.element_orders
    derived = _derived_subgroup(G)
    candidates = []
    for s in G.generating_set():
        k, x = 1, s  # k: the order of s G'
        while x not in derived:
            k, x = k + 1, t[x][s]
        candidates.append([x for x in range(G.order) if k % orders[x] == 0])
    _refuse_large_search("abelian map", candidates)
    maps = _generator_maps(G, G, candidates, keep=lambda xs: _commute(G, xs))
    return [AbelianMap(GroupHom(G, G, images)) for images in sorted(maps)]


def _holomorph_group(G: FiniteGroup, elems: tuple) -> list:
    """Generators of elems, members of Hol(G) with elems[h][0] == h: the
    picks PermGroup(elems) makes; InvalidSpec, as there, unless the set is
    closed.

    By the argument of perms._greedy_generators the set is closed exactly
    when elems[0] is the identity, the picks of _order_walk reach every id
    of the table elems[a][b], and elems[y] . elems[g] == elems[elems[y][g]]
    for every y at each pick g.  Both sides of that law lie in Hol(G) =
    lambda(G) Aut(G), whose elements are fixed by their images of 0 and of
    G.generating_set(), so it is decided at those k+1 points.  At 0 both
    sides give elems[y][g]; at a generator s it is one gather, column
    elems[g][s] against column s gathered at column g, so O(k^2 n) in place
    of the O(k n^2) of groups._acts.
    """
    n = G.order
    if elems[0] == tuple(range(n)):
        gens, reached = _order_walk(elems, list(map(_cycle_at_0, elems)))

        def column(s: int) -> tuple:
            return tuple(map(itemgetter(s), elems))

        points = [(s, column(s)) for s in G.generating_set()]

        def law(g: int) -> bool:
            at_g = _row_getter(column(g))
            return all(column(elems[g][s]) == at_g(col_s) for s, col_s in points)

        if len(reached) == n and all(map(law, gens)):
            return [elems[g] for g in gens or (0,)]
    raise InvalidSpec("set is not closed under composition")


def hgs_from_abelian_map(am: AbelianMap) -> RegularSubgroup:
    """The structure whose member indexed by h is
    lambda(h psi(h)^-1) . rho(psi(h)^-1), that is x -> h psi(h)^-1 x psi(h)
    (Koch, Abelian maps, bi-skew braces, and opposite pairs of Hopf-Galois
    structures, Proc. AMS Ser. B 8, 2021).

    For any map psi that member is lambda(h) . inn(psi(h)^-1), an element
    of Hol(G) sending 0 to h, so the members come in eta order and
    _holomorph_group decides closure at k+1 points.  That check, and
    the stability check of _certified, run only when no live structure has
    these members.
    """
    G = am.group
    tm, inv, columns = G.table, G.inverse, _columns(G)
    images = am.images
    # member h is row h gathered at x -> p^-1 x p, p = psi(h): one gather
    # per distinct p, and at p = 0 the row itself
    at = {p: _row_getter(_compose(tm[inv[p]], columns[p])) if p else tuple
          for p in set(images)}
    elems = tuple(at[p](row) for row, p in zip(tm, images))
    try:
        return _structure(G, elems, lambda: _holomorph_group(G, elems))
    except HgsError as exc:
        raise ConstructionError(f"abelian map construction failed: {exc}") from exc


def abelian_transport_check(am: AbelianMap, g: int) -> bool:
    """Conjugating the map by inn(g) tracks rho-conjugation by g."""
    G = am.group
    phi = inner_automorphism(G, g)
    phi_inv = inner_automorphism(G, G.inverse[g])
    conj = AbelianMap(phi.compose(am.hom.compose(phi_inv)))
    return _is_conjugate(hgs_from_abelian_map(am), g, hgs_from_abelian_map(conj))


# ---------------------------------------------------------------------------
# Induced structures


class InducedInput:
    """Data for inducing a structure from a subgroup with normal complement.

    T is the subgroup, S the normal complement; every g factors uniquely as
    s . t.  A is a translation-stable regular subgroup on the cosets G/T,
    B a stable regular subgroup on T itself.  Built via induced_input.
    """

    __slots__ = (
        "group",
        "t_sub",
        "s_sub",
        "quotient",
        "a_structure",
        "b_structure",
        "t_group",
        "t_elements",
        "s_of_coset",
    )

    def __init__(self, group, t_sub, s_sub, quotient, a_structure, b_structure,
                 t_group, t_elements, s_of_coset):
        self.group = group
        self.t_sub = t_sub
        self.s_sub = s_sub
        self.quotient = quotient
        self.a_structure = a_structure
        self.b_structure = b_structure
        self.t_group = t_group
        self.t_elements = t_elements
        self.s_of_coset = s_of_coset

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.induced_input/1",
            "subgroup": list(self.t_sub.elements),
            "complement": list(self.s_sub.elements),
            "quotient_structure": self.a_structure.to_json(),
            "subgroup_structure": self.b_structure.to_json(),
        }


def _check_coset_stable(cs: CosetSpace, A: PermGroup) -> None:
    """A must be normalized by every left translation of the full group;
    generators suffice on both sides."""
    G = cs.group
    lts = [(left_translation(cs, h), left_translation(cs, G.inverse[h]))
           for h in G.generating_set()]
    if _escape(lts, A.generators, A.element_set) is not None:
        raise ConstructionError(
            "quotient structure is not stable under left translation"
        )


def induced_input(
    G: FiniteGroup, T: Subgroup, S: Subgroup, A: PermGroup, B: PermGroup
) -> InducedInput:
    """Validate the pieces of an induced construction."""
    if T.parent is not G or S.parent is not G:
        raise ConstructionError("subgroup and complement must live in the group")
    if not S.is_normal():
        raise ConstructionError("the complement must be normal")
    if S.element_set & T.element_set != {0}:
        raise ConstructionError("complement and subgroup must intersect trivially")
    if len(S.elements) * len(T.elements) != G.order:
        raise ConstructionError("orders do not factor the group")
    cs = CosetSpace(G, T)
    s_of = [-1] * cs.degree
    for s in S.elements:
        c = cs.coset_of[s]
        if s_of[c] != -1:
            raise ConstructionError("complement does not biject onto the cosets")
        s_of[c] = s
    if -1 in s_of:
        raise ConstructionError("complement does not biject onto the cosets")
    if A.base != cs.degree or not A.is_regular():
        raise ConstructionError("quotient structure must be regular on the cosets")
    _check_coset_stable(cs, A)
    t_group, t_elements = T.as_group()
    if B.base != len(t_elements) or not B.is_regular():
        raise ConstructionError("subgroup structure must be regular on the subgroup")
    if _escape(_left_translations(t_group), B.generators, B.element_set) is not None:
        raise ConstructionError(
            "subgroup structure is not stable under its translations"
        )
    return InducedInput(G, T, S, cs, A, B, t_group, t_elements, tuple(s_of))


def induced_hgs(inp: InducedInput) -> RegularSubgroup:
    """The structure sending s.t to a[s].b[t], over all pairs (a, b)."""
    G = inp.group
    tm = G.table
    n = G.order
    tpos = {t: i for i, t in enumerate(inp.t_elements)}
    fac = [None] * n
    for s in inp.s_sub.elements:
        row = tm[s]
        ci = inp.quotient.coset_of[s]
        for t in inp.t_elements:
            g = row[t]
            if fac[g] is not None:
                raise ConstructionError("factorization s.t is not unique")
            fac[g] = (ci, tpos[t])
    s_of = inp.s_of_coset
    telems = inp.t_elements
    elems = []
    for ai in inp.a_structure.elements:
        for bi in inp.b_structure.elements:
            img = [0] * n
            for g in range(n):
                ci, ti = fac[g]
                img[g] = tm[s_of[ai[ci]]][telems[bi[ti]]]
            elems.append(tuple(img))
    try:
        return certify(G, PermGroup(elems))
    except HgsError as exc:
        raise ConstructionError(f"induced construction failed: {exc}") from exc


def induced_transport_check(inp: InducedInput, g: int) -> bool:
    """Inner transport of both components tracks rho-conjugation by g.

    phi = inn(g) is an automorphism that keeps the normal complement S, so
    it carries T to T2 = phi(T), the coset tT to phi(t)T2 and the position
    of t in T to that of phi(t) in T2; A and B are conjugated along those
    two bijections, and induced_input revalidates the result.
    """
    G = inp.group
    phi = inner_automorphism(G, g).images
    T = inp.t_sub
    T2 = Subgroup(G, (phi[t] for t in T.elements),
                  generators=tuple(phi[t] for t in T.generators))
    cs2 = CosetSpace(G, T2)
    pos2 = {t: i for i, t in enumerate(T2.elements)}
    on_cosets = [cs2.coset_of[phi[r]] for r in inp.quotient.representatives]
    on_t = [pos2[phi[t]] for t in T.elements]
    A2, B2 = (
        PermGroup(_conjugate_all(X.elements, m, _invert(m)))
        for X, m in ((inp.a_structure, on_cosets), (inp.b_structure, on_t))
    )
    inp2 = induced_input(G, T2, inp.s_sub, A2, B2)
    return _is_conjugate(induced_hgs(inp), g, induced_hgs(inp2))


# ---------------------------------------------------------------------------
# Stable regular subgroups on a coset space


def coset_stable_regular_subgroups(G: FiniteGroup, T: Subgroup) -> list:
    """All regular subgroups of Perm(G/T) normalized by the translation
    image of G, sorted canonically: the embedding search of enumerate_hgs
    over the catalog types of the coset degree, which must be complete."""
    cs = CosetSpace(G, T)
    d = cs.degree
    if not catalog_complete(d):
        raise UnsupportedOrder(f"catalog is incomplete for coset degree {d}")
    found = _embedding_sets(cs, catalog_specs(d))
    return sorted((PermGroup._generated_by(eta, gens()) for _, eta, gens in found),
                  key=PermGroup.canonical_key)
