"""Golden CLI reports: the JSON of fixed commands must not change by a byte.

The files under tests/golden/ are the reports of these commands as printed
by `hgslab ... --json`.  A change that is meant to alter one of them has to
replace the file in the same change.
"""

from pathlib import Path

import pytest

from hgslab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("hgs_rho_orbits_metacyclic_7_3_2.json",
     ["hgs", "rho-orbits", "--group", "metacyclic:7:3:2", "--json"]),
    # orbit of 3 with a stabilizer of order 4, closed from Schreier generators
    ("hgs_show_dihedral_6_index_3.json",
     ["hgs", "show", "--group", "dihedral:6", "--structure", "index:3",
      "--json"]),
    # every map goes through the subgroup check of hgs_from_abelian_map
    ("construct_abelian_maps_sym_4.json",
     ["construct", "abelian-maps", "--group", "sym:4", "--json"]),
    # index 21 is in the rho orbit of index 3: isomorphic, unequal braces
    ("brace_dihedral_6_index_3_compare_21.json",
     ["brace", "--group", "dihedral:6", "--structure", "index:3", "--tables",
      "--compare", "index:21", "--json"]),
    ("hgs_enumerate_sym_4_type_sym_4.json",
     ["hgs", "enumerate", "--group", "sym:4", "--type", "sym:4", "--json"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_json_matches_golden(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
