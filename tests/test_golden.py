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
    # orbit of 3 with a stabilizer of order 4, the h whose rho(h) normalizes N
    ("hgs_show_dihedral_6_index_3.json",
     ["hgs", "show", "--group", "dihedral:6", "--structure", "index:3",
      "--json"]),
    # lambda(G) and rho(G) come from G's rows and columns, with no search;
    # each is the opposite of the other, so neither is self-opposite
    ("hgs_show_dihedral_6_lambda.json",
     ["hgs", "show", "--group", "dihedral:6", "--structure", "lambda",
      "--json"]),
    ("hgs_show_dihedral_6_rho.json",
     ["hgs", "show", "--group", "dihedral:6", "--structure", "rho",
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
    # the README example: four stable subgroups and a transport check
    ("correspondence_metacyclic_7_3_2_index_0_transport_5.json",
     ["correspondence", "--group", "metacyclic:7:3:2", "--structure",
      "index:0", "--transport", "5", "--json"]),
    # lambda(G) and rho(G) commute, so every subgroup of rho(G) is stable
    ("correspondence_dihedral_4_rho.json",
     ["correspondence", "--group", "dihedral:4", "--structure", "rho",
      "--json"]),
    # coset degree 7: the regular subgroups of Perm(G/T) stable under G
    ("construct_induced_metacyclic_7_3_2_t_1_s_3.json",
     ["construct", "induced", "--group", "metacyclic:7:3:2", "--t-gens", "1",
      "--s-gens", "3", "--json"]),
    # coset degree 6; the subgroup level T has order 2
    ("construct_induced_dihedral_6_t_1_s_2.json",
     ["construct", "induced", "--group", "dihedral:6", "--t-gens", "1",
      "--s-gens", "2", "--json"]),
    ("construct_fpf_sym_3_identity_trivial.json",
     ["construct", "fpf", "--group", "sym:3", "--f1", "0,1,2,3,4,5", "--f2",
      "0,0,0,0,0,0", "--json"]),
    ("group_sym_4.json", ["group", "sym:4", "--json"]),
    ("group_metacyclic_7_3_2.json", ["group", "metacyclic:7:3:2", "--json"]),
    # all eleven checks; without --timing the report is deterministic
    ("verify.json", ["verify", "--json"]),
    # an unlabelled structure from raw generators: generated_perm_group,
    # then type_of through are_isomorphic answers cyclic:21
    ("hgs_show_metacyclic_7_3_2_gens_cyclic.json",
     ["hgs", "show", "--group", "metacyclic:7:3:2", "--structure",
      "gens:5,3,4,8,6,7,11,9,10,14,12,13,17,15,16,20,18,19,2,0,1", "--json"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_json_matches_golden(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
