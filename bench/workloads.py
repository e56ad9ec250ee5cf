"""The benchmark's workloads: op lists over hgslab's public library API.

A workload is a function ``(hgslab, run, rng, inputs)``.  It makes every
library call through ``run.op``, which times the call and checks the
result's digest against ``expected.json``; ``rng`` (seeded from the
command line) only reorders ops and picks compared orbit members, so the
library sees the same inputs whatever the seed.  ``setup`` builds the
inputs, which counts toward ``setup_s`` rather than ``wall_s``.
"""

from __future__ import annotations

import hashlib
import json
import time

# Orders whose catalog is complete and small enough for a whole census.
CATALOG_ORDERS = tuple(range(1, 16)) + (21,)

# (group spec, type filter); "self" means the type is the group itself.
FILTERED_PAIRS = (
    ("sym:4", "self"),
    ("dihedral:8", "self"),
    ("product:cyclic:2,cyclic:8", "self"),
    ("alt:4", "self"),
    ("cyclic:24", "self"),
    ("dihedral:8", "cyclic:16"),
)

# Facts stated by the paper and the README, checked on every run.
FACTS = {
    "catalog-census": {
        "catalog_structures": 376,
        "metacyclic:7:3:2/structures": 23,
        "metacyclic:7:3:2/orbit_sizes": [1, 1, 7, 7, 7],
    },
    "filtered-16-24": {
        "sym:4/self/structures": 8,
        "dihedral:8/self/structures": 24,
    },
    "s5-abelian": {
        "abelian_maps": 26,
        "orbit_sizes": [1, 10, 15],
    },
}


def digest(result) -> str:
    """Canonical digest of a library result: sorted-key JSON of its
    ``to_json()`` (lists elementwise), so no ids or timings enter it."""

    def plain(obj):
        if hasattr(obj, "to_json"):
            return obj.to_json()
        if isinstance(obj, (list, tuple)):
            return [plain(x) for x in obj]
        return obj

    text = json.dumps(plain(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class Run:
    """Times each library call and checks its result.

    An op fails if it raises or its digest differs from the expected one;
    a fact that does not hold also counts as a failed op.  Failures never
    abort the run.  ``on_op(key, error, call_s)`` is told about each
    finished op (``error`` is None on success), and ``tracer``, if set, is enabled only
    while a library call runs, so spans cover exactly the timed calls.
    Calls are timed with ``clock``.
    """

    def __init__(self, expected, on_op=None, tracer=None, record=None,
                 clock=time.perf_counter):
        self.expected = expected
        self.clock = clock
        self.on_op = on_op
        self.tracer = tracer
        self.record = record
        self.attempted = 0
        self.failures = []
        self.call_s = 0.0

    def _done(self, key, error, call_s=0.0):
        self.attempted += 1
        self.call_s += call_s
        if error is not None:
            self.failures.append((key, error))
        if self.on_op is not None:
            self.on_op(key, error, call_s)

    def _stop(self, t0) -> float:
        """Seconds since ``t0``; the tracer stops recording here."""
        call_s = self.clock() - t0
        if self.tracer is not None:
            self.tracer.enabled = False
        return call_s

    def op(self, key, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        t0 = self.clock()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self._done(key, f"raised {type(exc).__name__}: {exc}",
                       self._stop(t0))
            return None
        call_s = self._stop(t0)
        try:
            got = digest(result)
        except Exception as exc:  # so is a result that cannot be digested
            self._done(key, f"digest raised {type(exc).__name__}: {exc}",
                       call_s)
            return None
        if self.record is not None:
            self.record[key] = got
        want = self.expected.get(key)
        if self.record is None and got != want:
            self._done(key, f"digest {got} != expected {want}", call_s)
        else:
            self._done(key, None, call_s)
        return result

    def fact(self, key, got, want):
        ok = got == want
        self._done(f"fact/{key}", None if ok else f"got {got!r}, want {want!r}")


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _hash(N) -> str:
    return N.canonical_hash()[:16]


def setup(hgslab, workload):
    """Build the inputs of a workload from its fixed specs."""
    if workload == "catalog-census":
        groups = []
        for n in CATALOG_ORDERS:
            for spec in hgslab.catalog_specs(n):
                G = hgslab.build_group(spec)
                groups.append((str(spec), G, G.generating_set()))
        return groups
    if workload == "filtered-16-24":
        pairs = []
        for g_spec, m_spec in FILTERED_PAIRS:
            G = hgslab.build_group(g_spec)
            M = hgslab.parse_spec(g_spec if m_spec == "self" else m_spec)
            pairs.append((f"{g_spec}/{m_spec}", G, M))
        return pairs
    if workload == "s5-abelian":
        return hgslab.build_group("sym:5")
    raise KeyError(workload)


def catalog_census(hgslab, run, rng, groups):
    facts = FACTS["catalog-census"]
    total = 0
    for spec, G, gens in _shuffled(rng, groups):
        inv = run.op(f"enumerate_hgs/{spec}", hgslab.enumerate_hgs, G)
        if inv is None:
            continue
        total += len(inv)
        orbits = run.op(f"rho_partition/{spec}", hgslab.rho_partition, inv)
        if spec == "metacyclic:7:3:2":
            run.fact(f"{spec}/structures", len(inv), facts[f"{spec}/structures"])
            sizes = sorted(len(o) for o in orbits or ())
            run.fact(f"{spec}/orbit_sizes", sizes, facts[f"{spec}/orbit_sizes"])

        braces = {}
        for N in _shuffled(rng, inv):
            key = f"{spec}/{_hash(N)}"
            braces[key] = run.op(f"brace_from_subgroup/{key}",
                                 hgslab.brace_from_subgroup, N)
        tasks = []
        for N in inv:
            key = f"{spec}/{_hash(N)}"
            B = braces[key]
            if B is not None:
                tasks.append((f"is_two_sided/{key}", hgslab.is_two_sided, B))
                tasks.append((f"ybe_map/{key}", hgslab.ybe_map, B))
            tasks.append((f"opposite/{key}", hgslab.opposite, N))
            tasks.append((f"realizable_lattice/{key}",
                          hgslab.realizable_lattice, N))
            for g in gens:
                tasks.append((f"lattice_transport_check/{key}/{g}",
                              hgslab.lattice_transport_check, N, g))
        for orbit in orbits or ():
            members = list(orbit.members)
            # the seed picks the member compared with all others; recording
            # covers every choice, so digests do not depend on the seed
            firsts = [members.pop(rng.randrange(len(members)))]
            if run.record is not None:
                members = firsts = list(orbit.members)
            for first in firsts:
                for other in members:
                    if other is first:
                        continue
                    tasks.append((
                        f"compare_braces/{spec}/{_hash(first)}/{_hash(other)}",
                        hgslab.compare_braces, first, other,
                    ))
        for task in _shuffled(rng, tasks):
            run.op(*task)
    run.fact("catalog_structures", total, facts["catalog_structures"])


def filtered_16_24(hgslab, run, rng, pairs):
    facts = FACTS["filtered-16-24"]
    for label, G, M in _shuffled(rng, pairs):
        inv = run.op(f"enumerate_hgs/{label}", hgslab.enumerate_hgs, G, M)
        if inv is None:
            continue
        run.op(f"rho_partition/{label}", hgslab.rho_partition, inv)
        fact = f"{label}/structures"
        if fact in facts:
            run.fact(fact, len(inv), facts[fact])


def s5_abelian(hgslab, run, rng, G):
    facts = FACTS["s5-abelian"]
    maps = run.op("abelian_maps/sym:5", hgslab.abelian_maps, G)
    if maps is None:
        return
    run.fact("abelian_maps", len(maps), facts["abelian_maps"])
    structures = []
    for k in _shuffled(rng, range(len(maps))):
        N = run.op(f"hgs_from_abelian_map/sym:5/{k}",
                   hgslab.hgs_from_abelian_map, maps[k])
        if N is not None:
            structures.append(N)
    tasks = []
    for N in structures:
        key = f"sym:5/{_hash(N)}"
        tasks.append((f"rho_orbit/{key}", hgslab.rho_orbit, N))
        tasks.append((f"opposite/{key}", hgslab.opposite, N))
    for task in _shuffled(rng, tasks):
        run.op(*task)
    inv = hgslab.HgsInventory(G, structures, False)
    orbits = run.op("rho_partition/sym:5", hgslab.rho_partition, inv)
    if orbits is None:
        return
    run.fact("orbit_sizes", sorted(len(o) for o in orbits), facts["orbit_sizes"])
    tasks = []
    for orbit in orbits:
        N = orbit.members[0]
        key = f"sym:5/{_hash(N)}"
        B = run.op(f"brace_from_subgroup/{key}", hgslab.brace_from_subgroup, N)
        if B is not None:
            tasks.append((f"is_two_sided/{key}", hgslab.is_two_sided, B))
            tasks.append((f"ybe_map/{key}", hgslab.ybe_map, B))
    for task in _shuffled(rng, tasks):
        run.op(*task)


WORKLOADS = {
    "catalog-census": catalog_census,
    "filtered-16-24": filtered_16_24,
    "s5-abelian": s5_abelian,
}
