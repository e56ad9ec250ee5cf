"""Command dispatch, exit codes, structure references, JSON determinism."""

import json
import tracemalloc

import pytest

from hgslab import build_group, lambda_structure, rho_structure
from hgslab.cli import main, resolve_structure
from hgslab.errors import UsageError
import hgslab.cli as cli_module


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oversized_group_is_refused_before_allocating(capsys, monkeypatch):
    import hgslab.groups as groups_module

    def build_table(spec):
        raise AssertionError(f"{spec} reached the table builder")

    monkeypatch.setattr(groups_module, "_build_group_uncached", build_table)
    tracemalloc.start()
    code, out, err = run_cli(capsys, "group", "cyclic:100000")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "above the limit" in err
    assert peak < 4 * 2**20


def test_group_verb(capsys):
    code, out, _ = run_cli(capsys, "group", "metacyclic:7:3:2")
    assert code == 0
    assert "order: 21" in out
    assert "abelian: False" in out


def test_unknown_verb_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_invalid_spec_is_computation_error(capsys):
    code, _, err = run_cli(capsys, "hgs", "enumerate", "--group",
                           "metacyclic:7:3:3")
    assert code == 2
    assert "multiplicative order" in err


def test_enumerate_with_type_filter(capsys):
    code, out, _ = run_cli(capsys, "hgs", "enumerate",
                           "--group", "metacyclic:7:3:2",
                           "--type", "cyclic:21")
    assert code == 0
    assert out.startswith("7 structures")


def test_rho_orbits_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "hgs", "rho-orbits",
                             "--group", "dihedral:4", "--json")
    code2, out2, _ = run_cli(capsys, "hgs", "rho-orbits",
                             "--group", "dihedral:4", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "hgslab.report/1"
    assert payload["payload"]["orbit_count"] == 23
    assert payload["payload"]["structure_count"] == 30


def test_show_structure_by_reference(capsys):
    code, out, _ = run_cli(capsys, "hgs", "show", "--group", "dihedral:4",
                           "--structure", "lambda", "--json")
    assert code == 0
    lam_hash = json.loads(out)["payload"]["structure"]["canonical_hash"]
    code, out, _ = run_cli(capsys, "hgs", "show", "--group", "dihedral:4",
                           "--structure", f"hash:{lam_hash[:8]}", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["structure"]["canonical_hash"] == lam_hash


def test_resolve_structure_references(s3):
    assert resolve_structure(s3, "lambda").perms.element_set == \
        lambda_structure(s3).perms.element_set
    assert resolve_structure(s3, "rho").perms.element_set == \
        rho_structure(s3).perms.element_set
    idx0 = resolve_structure(s3, "index:0")
    assert resolve_structure(s3, f"hash:{idx0.canonical_hash()}") \
        .perms.element_set == idx0.perms.element_set
    gens = ";".join(",".join(str(x) for x in p.images)
                    for p in lambda_structure(s3).perms.generators)
    assert resolve_structure(s3, f"gens:{gens}").perms.element_set == \
        lambda_structure(s3).perms.element_set
    with pytest.raises(UsageError):
        resolve_structure(s3, "index:999")
    with pytest.raises(UsageError):
        resolve_structure(s3, "hash:")  # every hash matches: ambiguous
    with pytest.raises(UsageError):
        resolve_structure(s3, "nonsense")


def test_brace_verb_with_compare(capsys):
    # the trivial brace (left translations) is not isomorphic to the
    # almost-trivial one (right translations) on a nonabelian group
    code, out, _ = run_cli(capsys, "brace", "--group", "sym:3",
                           "--structure", "lambda",
                           "--compare", "rho", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["two_sided"] is True
    assert payload["compare"]["isomorphic"] is False
    assert payload["compare"]["consistent"] is True
    code, out, _ = run_cli(capsys, "brace", "--group", "sym:3",
                           "--structure", "lambda",
                           "--compare", "lambda", "--json")
    payload = json.loads(out)["payload"]
    assert payload["compare"]["equal"] is True
    assert payload["compare"]["isomorphic"] is True


def test_construct_fpf_cli_matches_lambda(capsys):
    code, out, _ = run_cli(capsys, "construct", "fpf", "--group", "sym:3",
                           "--f1", "0,1,2,3,4,5", "--f2", "0,0,0,0,0,0",
                           "--json")
    assert code == 0
    built = json.loads(out)["payload"]["structure"]["canonical_hash"]
    assert built == lambda_structure(build_group("sym:3")).canonical_hash()


def test_construct_fpf_rejects_non_fpf_pair(capsys):
    code, _, err = run_cli(capsys, "construct", "fpf", "--group", "sym:3",
                           "--f1", "0,1,2,3,4,5", "--f2", "0,1,2,3,4,5")
    assert code == 2
    assert "fixed point" in err


def test_correspondence_verb(capsys):
    code, out, _ = run_cli(capsys, "correspondence",
                           "--group", "metacyclic:7:3:2",
                           "--structure", "index:0", "--transport", "5")
    assert code == 0
    assert "4 stable subgroups" in out
    assert "transport under element 5: True" in out


def test_verify_list_and_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "metacyclic-cyclic-family" in out
    code, out, _ = run_cli(capsys, "verify",
                           "--only", "dihedral-family")
    assert code == 0
    assert out.count("PASS") == 1
    assert "1 passed, 0 failed" in out


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "no-such-check")
    assert code == 1
    assert "unknown check" in err


def test_verify_failure_exits_three(capsys, monkeypatch):
    from hgslab.verify import CheckResult

    def fake_run_checks(only=None):
        return [CheckResult("stub", "always fails", False, "boom", 0.0)]

    monkeypatch.setattr(cli_module, "run_checks", fake_run_checks)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    assert "FAIL stub" in out


def test_timing_is_opt_in(capsys):
    code, out, _ = run_cli(capsys, "group", "cyclic:4", "--json")
    assert "seconds" not in json.loads(out)
    code, out, _ = run_cli(capsys, "group", "cyclic:4", "--json", "--timing")
    assert "seconds" in json.loads(out)
