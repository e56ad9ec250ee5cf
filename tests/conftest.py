import pytest

from hgslab import build_group, enumerate_hgs


@pytest.fixture(scope="session")
def m733():
    return build_group("metacyclic:7:3:2")


@pytest.fixture(scope="session")
def d4():
    return build_group("dihedral:4")


@pytest.fixture(scope="session")
def s3():
    return build_group("sym:3")


@pytest.fixture(scope="session")
def s3_inventory(s3):
    return enumerate_hgs(s3)


@pytest.fixture(scope="session")
def d4_inventory(d4):
    return enumerate_hgs(d4)


CATALOG_ORDERS = tuple(range(1, 16)) + (21,)


@pytest.fixture(scope="session")
def catalog_structures():
    """Every structure on every catalog group of order 1-15 and 21 (376)."""
    from hgslab import catalog_specs

    return [
        N
        for n in CATALOG_ORDERS
        for spec in catalog_specs(n)
        for N in enumerate_hgs(build_group(spec))
    ]


@pytest.fixture(scope="session")
def s5_orbit_structures():
    """The first member of each of the 3 rho-orbits of the 26 abelian-map
    structures on sym:5."""
    from hgslab import abelian_maps, hgs_from_abelian_map, rho_partition

    G = build_group("sym:5")
    structures = [hgs_from_abelian_map(am) for am in abelian_maps(G)]
    return [orbit.members[0] for orbit in rho_partition(structures)]
