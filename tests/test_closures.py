"""The two closure kernels against answers recorded before they were merged.

groups._join closes element ids in a Cayley table for subgroup_closure,
generating_set and the subgroup lattices; perms._greedy_close closes
permutations for generated_perm_group and for PermGroup's check of a set
that is not regular.  The digests below were recorded from the former
separate closures (_closure_set, and a full re-closure after every
generator pick): for each group, its generating set and subgroup_closure of
every single element and of 16 seeded pairs and triples must stay as they
were.

A regular set is closed as its own Cayley table instead.  On every
structure of the catalog orders and of the sym:5 abelian maps, their
opposites and metacyclic:31:5:2 of its own type, that table path must pick
what _greedy_close picks, and on seeded rows with two images swapped it
must reject what _greedy_close rejects.  Closed sets of maps that look
regular but are not permutations are refused, not walked forever.

opposite(N) closes nothing: it takes the ids that the same walk picks on
N's table eta, and must carry what certifying the closed columns of eta
gives.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hgslab
from hgslab import (
    ClosureCapExceeded,
    InvalidSpec,
    abelian_maps,
    build_group,
    catalog_specs,
    certify,
    enumerate_hgs,
    hgs_from_abelian_map,
    lambda_structure,
    opposite,
    rho_structure,
    subgroup_closure,
)
from hgslab import perms
from hgslab.perms import PermGroup, _compose, _greedy_close, _tuple_order

RECORDED = {
    'cyclic:1': 'b9ca58bbd236207a',
    'cyclic:2': 'd04cf1eaeeedf5a6',
    'cyclic:3': '645f6902206b7f36',
    'cyclic:4': '2025dab1d72edbad',
    'product:cyclic:2,cyclic:2': '19ceaa59a5ab080a',
    'cyclic:5': 'abac574fc3e82d45',
    'cyclic:6': '6bd131a7cee23b04',
    'dihedral:3': '2a58f8b668223414',
    'cyclic:7': '068f83d0e210fe71',
    'cyclic:8': '4df01d52d0a1b957',
    'product:cyclic:2,cyclic:2,cyclic:2': '8e573ff45bcab13a',
    'product:cyclic:2,cyclic:4': 'abbd6b00f0e7afc5',
    'dihedral:4': '22fe7dc1639b7406',
    'dicyclic:4': '75b1266bc9b436dd',
    'cyclic:9': 'd4ab68d3ce836d31',
    'product:cyclic:3,cyclic:3': '3160598fc2ffbbdf',
    'cyclic:10': 'c89cc3f6ac75198f',
    'dihedral:5': '8aa4b2db95ef13c9',
    'cyclic:11': 'e05b96822b23a926',
    'cyclic:12': '1eb950d93ef822ea',
    'product:cyclic:2,cyclic:6': '79f31db0468be53c',
    'dihedral:6': 'afa50d02708e327c',
    'dicyclic:6': '761ef4d65ece401b',
    'alt:4': '9bae590b0cd4923d',
    'cyclic:13': 'ef97ab1c030ddc07',
    'cyclic:14': '162b1495b2c87ce9',
    'dihedral:7': '4b199e262db73729',
    'cyclic:15': 'ec326ca7d9f0138e',
    'cyclic:16': '8a6c3fd1513ee448',
    'product:cyclic:2,cyclic:2,cyclic:2,cyclic:2': '9a0b05094a916743',
    'product:cyclic:2,cyclic:2,cyclic:4': 'be22a238891d1cb4',
    'product:cyclic:2,cyclic:8': '18af47ba09d50339',
    'product:cyclic:4,cyclic:4': '22d73573a0814c3a',
    'dihedral:8': '1f55a100513dd96c',
    'dicyclic:8': '91c3d9bc698e1e0f',
    'cyclic:17': '4a36c70bb95e8fe6',
    'cyclic:18': '276812d7f4c5fde1',
    'product:cyclic:3,cyclic:6': '5c0641417e9cd12f',
    'dihedral:9': 'cf0f28805f2c9223',
    'cyclic:19': '105087a40dfe2f1b',
    'cyclic:20': '047162d005bfa4f0',
    'product:cyclic:2,cyclic:10': 'a260f6c987f6a5fa',
    'dihedral:10': '4658687ccdcc4053',
    'dicyclic:10': '9a5b9e1b055163fb',
    'cyclic:21': '8dc14f2e4d779cf1',
    'metacyclic:7:3:2': '4776daf4dbdf7e23',
    'cyclic:22': '8b6c1eac5368cdcc',
    'dihedral:11': '7344260651c05bec',
    'cyclic:23': '83610b075902837a',
    'cyclic:24': '500a3ef5298fb72c',
    'product:cyclic:2,cyclic:12': '451131a97da304c3',
    'product:cyclic:2,cyclic:2,cyclic:6': '382d8a46254f97be',
    'dihedral:12': 'b3c67e75f2f39a2c',
    'dicyclic:12': '244dad6c2a1efa76',
    'sym:4': 'dbe2d5319a92b097',
    'sym:5': '44702c39f9a8f0c1',
    'elemab:2:6': 'a516945eeb29d09b',
    'elemab:2:10': 'd4b341cc4e1358e5',
    'dihedral:30': 'b7e21687218ead33',
    'metacyclic:31:5:2': 'f1cd97837e94b18f',
}


def _digest(spec: str) -> str:
    G = build_group(spec)
    rng = random.Random(spec)
    picks = [(x,) for x in range(G.order)]
    picks += [tuple(rng.randrange(G.order) for _ in range(k))
              for k in (2, 3) for _ in range(8)]
    subs = [subgroup_closure(G, gens) for gens in picks]
    blob = repr((G.generating_set(),
                 [(S.elements, S.generators) for S in subs]))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_recorded_groups_are_every_catalog_group_up_to_24_and_five_more():
    catalog = [str(s) for n in range(1, 25) for s in catalog_specs(n)]
    extra = ["sym:5", "elemab:2:6", "elemab:2:10", "dihedral:30",
             "metacyclic:31:5:2"]
    assert list(RECORDED) == catalog + extra


@pytest.mark.parametrize("spec", sorted(RECORDED))
def test_generating_set_and_subgroup_closure_match_recorded(spec):
    assert _digest(spec) == RECORDED[spec]


def test_greedy_close_raises_exactly_past_the_limit():
    cycle = (1, 2, 3, 4, 5, 0)
    swap = (1, 0, 2, 3, 4, 5)
    for gens, order in (([cycle], 6), ([swap, cycle], 720), ([swap], 2)):
        picked, reached = _greedy_close(gens, order)
        assert len(reached) == order and picked == gens
        with pytest.raises(ClosureCapExceeded):
            _greedy_close(gens, order - 1)


def test_greedy_close_picks_only_candidates_not_reached():
    cycle = (1, 2, 3, 0)
    square = (2, 3, 0, 1)
    picked, reached = _greedy_close([cycle, square, (0, 1, 2, 3)], 4)
    assert picked == [cycle]
    assert reached == {(0, 1, 2, 3), cycle, square, (3, 0, 1, 2)}


# ---------------------------------------------------------------------------
# Regular sets: the table path against the composition path

NOT_CLOSED = "set is not closed under composition"


@pytest.fixture(scope="module")
def structures(catalog_structures):
    """The 376 structures of the catalog orders and the 26 sym:5
    abelian-map structures."""
    s5 = [hgs_from_abelian_map(am) for am in abelian_maps(build_group("sym:5"))]
    return [*catalog_structures, *s5]


@pytest.fixture(scope="module")
def regular_sets(structures):
    """Element sets of 992 structures: the 402 of the structures fixture,
    their opposites, and the 188 of metacyclic:31:5:2 of its own type."""
    M = build_group("metacyclic:31:5:2")
    found = [*structures, *map(opposite, structures),
             *enumerate_hgs(M, type_filter=M.spec)]
    return [N.eta for N in found]


def _table_outcome(elems):
    try:
        return PermGroup(elems).generators
    except InvalidSpec as exc:
        return str(exc)


def _composition_outcome(elems):
    """What _greedy_close picks over the candidates by decreasing order, or
    PermGroup's message when they do not close to the set.  A one-element
    set is its own generator sequence, as PermGroup has it."""
    if len(elems) == 1:
        return tuple(elems)
    candidates = sorted(elems, key=lambda q: (-_tuple_order(q), q))
    try:
        gens, reached = _greedy_close(candidates, len(elems))
    except ClosureCapExceeded:
        reached = None
    return tuple(gens) if reached == set(elems) else NOT_CLOSED


def _swapped_row(elems, rng):
    """elems with two images other than that of 0 swapped in one row; the
    set still looks regular."""
    out = list(elems)
    a = rng.randrange(len(out))
    i, j = rng.sample(range(1, len(out)), 2)
    row = list(out[a])
    row[i], row[j] = row[j], row[i]
    out[a] = tuple(row)
    return out


def test_table_path_picks_what_greedy_close_picks(regular_sets):
    assert len(regular_sets) == 992
    for elems in regular_sets:
        assert _table_outcome(elems) == _composition_outcome(elems), elems


def test_table_path_rejects_what_greedy_close_rejects(regular_sets):
    rng = random.Random(20261019)
    mutants = [_swapped_row(elems, rng)
               for elems in rng.sample(regular_sets, 300) if len(elems) > 2]
    for elems in mutants:
        eset = set(elems)
        closed = all(_compose(p, q) in eset for p in elems for q in elems)
        assert not closed
        assert _table_outcome(elems) == _composition_outcome(elems) == NOT_CLOSED
    assert len(mutants) > 250


def test_regular_sets_close_without_composing(regular_sets, monkeypatch):
    def refuse(*args):
        raise AssertionError("a regular set was closed by composing tuples")

    monkeypatch.setattr(perms, "_greedy_close", refuse)
    monkeypatch.setattr(perms, "_compose", refuse)
    rng = random.Random(20261019)
    for elems in regular_sets:
        PermGroup(elems)
        if len(elems) > 2:
            with pytest.raises(InvalidSpec, match=NOT_CLOSED):
                PermGroup(_swapped_row(elems, rng))


def test_opposite_carries_the_picks_of_the_closed_columns(structures,
                                                         monkeypatch):
    """opposite takes its generators from the walk on N.eta and closes
    nothing; on the structures, and on lambda and rho of the 30 catalog
    groups, it must be what certifying the closed columns of eta gives."""
    groups = [build_group(s) for n in (*range(1, 16), 21) for s in catalog_specs(n)]
    assert len(groups) == 30
    cases = [*structures, *map(lambda_structure, groups),
             *map(rho_structure, groups)]
    want = [certify(N.group, PermGroup(zip(*N.eta))) for N in cases]

    def refuse(*args):
        raise AssertionError("opposite closed a set")

    monkeypatch.setattr(perms, "_greedy_generators", refuse)
    for N, W in zip(cases, want):
        got = opposite(N)
        assert frozenset(got.eta) == frozenset(W.eta)
        assert got.generators == W.generators


@pytest.mark.parametrize("elements", [
    [(0, 1), (1, 1)],
    [(0, 1, 2), (1, 1, 1), (2, 2, 2)],
])
def test_maps_that_are_not_permutations_are_refused(elements):
    """These sets look regular (p[0] is the index) and are closed under
    composition, but their rows are not permutations: the walk from 0 does
    not come back, which once looped forever.  A subprocess with a timeout
    turns a hang into a failure."""
    script = (
        "from hgslab.errors import InvalidSpec\n"
        "from hgslab.perms import PermGroup\n"
        "try:\n"
        f"    PermGroup({elements!r})\n"
        "except InvalidSpec as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hgslab.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=10)
    assert run.returncode == 0, run.stderr
    assert run.stdout == NOT_CLOSED + "\n"
