"""A structure is determined by its probe.

The probe of a G-stable regular subgroup N of Perm(G) is P = {η_s : s in
G.generating_set()}, η_s the member of N sending 0 to s.  The lemma the
structure memo rests on: the λ(x)·p·λ(x)⁻¹, x in G and p in P, generate N.
The oracle closes those conjugates with `perms.generated_perm_group`, from
G's table and the probe alone, and compares the closure with N's element
set; two structures of one inventory then never share a probe.  Inputs:
every structure of the complete catalog orders, `dihedral:16/self` and the
26 abelian-map structures on `sym:5`.
"""

import pytest

from hgslab import (
    abelian_maps,
    build_group,
    catalog_specs,
    enumerate_hgs,
    hgs_from_abelian_map,
    parse_spec,
)
from hgslab.groups import COMPLETE_ORDERS
from hgslab.perms import generated_perm_group

COMPLETE = [str(g) for n in sorted(COMPLETE_ORDERS) for g in catalog_specs(n)]


def _probe_closure(N) -> frozenset:
    """The group generated by the λ(G)-conjugates of N's probe."""
    G = N.group
    probe = [N.eta[s] for s in G.generating_set()] or [N.eta[0]]
    conjugates = set()
    for x in range(G.order):
        q, qinv = G.table[x], G.table[G.inverse[x]]
        conjugates.update(tuple(q[p[y]] for y in qinv) for p in probe)
    return generated_perm_group(sorted(conjugates)).element_set


def _check(structures) -> None:
    G = structures[0].group
    for N in structures:
        assert _probe_closure(N) == frozenset(N.eta)
    probes = {tuple(N.eta[s] for s in G.generating_set()) for N in structures}
    assert len(probes) == len(structures)


@pytest.mark.parametrize("spec", COMPLETE)
def test_probe_generates_every_catalog_structure(spec):
    _check(list(enumerate_hgs(build_group(spec))))


def test_probe_generates_dihedral_16_self():
    inv = enumerate_hgs(build_group("dihedral:16"), parse_spec("dihedral:16"))
    assert len(inv) == 40
    _check(list(inv))


def test_probe_generates_the_s5_abelian_map_structures():
    structures = [hgs_from_abelian_map(am) for am in abelian_maps(build_group("sym:5"))]
    assert len(structures) == 26
    _check(structures)
