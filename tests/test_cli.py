"""Command dispatch, exit codes, structure references, JSON determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hgslab import build_group, lambda_structure, rho_structure
from hgslab.cli import main, resolve_structure
from hgslab.errors import UsageError
import hgslab
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
    gens = ";".join(",".join(str(x) for x in p)
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


def test_construct_induced_at_coset_degree_9(capsys):
    code, out, _ = run_cli(capsys, "construct", "induced",
                           "--group", "dihedral:9", "--t-gens", "1",
                           "--s-gens", "2", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["quotient_structures"] == 1
    assert len(payload["induced"]) == 1


def _count_enumerations(monkeypatch) -> list:
    """The orders of the groups the CLI enumerates, appended per call."""
    enumerated = []
    enumerate_hgs = cli_module.enumerate_hgs

    def counting(G, *args, **kwargs):
        enumerated.append(G.order)
        return enumerate_hgs(G, *args, **kwargs)

    monkeypatch.setattr(cli_module, "enumerate_hgs", counting)
    return enumerated


@pytest.mark.parametrize("group,s_gens,rows", [
    ("dihedral:6", "2", 3),
    ("elemab:2:3", "2,4", 4),
])
def test_construct_induced_enumerates_each_group_once(capsys, monkeypatch,
                                                       group, s_gens, rows):
    enumerated = _count_enumerations(monkeypatch)
    code, out, _ = run_cli(capsys, "construct", "induced", "--group", group,
                           "--t-gens", "1", "--s-gens", s_gens, "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["induced"]) == rows
    assert all(r["index"] is not None for r in payload["induced"])
    # the subgroup level T once, then G once for every row's index
    assert enumerated == [payload["t_order"], build_group(group).order]


@pytest.mark.parametrize("argv,orders", [
    (("hgs", "show", "--group", "dihedral:6", "--structure", "index:3"), [12]),
    (("brace", "--group", "dihedral:6", "--structure", "index:3",
      "--compare", "index:21"), [12]),
    # order 16 cannot be enumerated without a type filter, and lambda needs
    # no inventory, so the command never tries
    (("brace", "--group", "cyclic:16", "--structure", "lambda"), []),
])
def test_structure_references_enumerate_each_group_once(capsys, monkeypatch,
                                                        argv, orders):
    enumerated = _count_enumerations(monkeypatch)
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["payload"]
    assert enumerated == orders


@pytest.mark.parametrize("argv,code", [
    (("hgs", "show", "--group", "dihedral:6", "--structure", "index:99"), 1),
    (("hgs", "show", "--group", "dihedral:6", "--structure", "index:x"), 1),
    (("hgs", "show", "--group", "dihedral:6", "--structure", "hash:zzzz"), 1),
    (("brace", "--group", "dihedral:6", "--structure", "lambda",
      "--compare", "nonsense"), 1),
    (("hgs", "show", "--group", "dihedral:6", "--structure", "gens:1,0"), 1),
    (("correspondence", "--group", "dihedral:6", "--structure", "lambda",
      "--transport", "99"), 1),
    (("hgs", "show", "--group", "cyclic:16", "--structure", "index:0"), 2),
    (("construct", "fpf", "--group", "sym:3", "--f1", "0,1,2,3,4,99",
      "--f2", "0,0,0,0,0,0"), 2),
    (("construct", "fpf", "--group", "sym:3", "--f1", "0,1,2,3,4,5",
      "--f2", "0,1,2,3,4,-7"), 2),
    (("group", "sym:0"), 2),
    (("group", "elemab:4:2"), 2),
    (("group", "metacyclic:7:3:3"), 2),
    (("group", "dicyclic:3"), 2),
    (("group", "product:cyclic:2"), 2),
    (("group", "product:(cyclic:2"), 2),
    # 350 levels of parentheses, refused before any recursion over them
    (("group", "product:(" * 350 + "cyclic:1" + "),cyclic:1" * 350), 2),
    (("hgs", "enumerate", "--group", "cyclic:4", "--type", "cyclic:8"), 2),
    # a group of order 2, not regular on 4 points
    (("hgs", "show", "--group", "cyclic:4", "--structure", "gens:1,0,3,2"), 2),
    (("construct", "induced", "--group", "sym:3", "--t-gens", "1",
      "--s-gens", "9"), 2),
    (("construct", "induced", "--group", "sym:3", "--t-gens", "1",
      "--s-gens", "1"), 2),
    # 32^5 choices of generator images, refused before the backtrack
    (("construct", "abelian-maps", "--group", "elemab:2:5"), 2),
])
def test_bad_structure_references_fail_on_one_line(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("hgs", "show", "--group", "elemab:2:6", "--structure", "rho"),
    ("brace", "--group", "elemab:2:6", "--structure", "rho"),
])
def test_structures_of_c2_to_the_6_are_named_in_time(capsys, argv):
    # naming the type once walked every choice of generator images, 27 s
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out and err == ""
    assert time.perf_counter() - start < 2


def test_construct_induced_refuses_an_incomplete_coset_degree(capsys):
    code, out, err = run_cli(capsys, "construct", "induced",
                             "--group", "cyclic:16", "--t-gens=",
                             "--s-gens", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "coset degree 16" in err


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


def test_correspondence_on_sym_5_rho(capsys):
    # lambda(G) and rho(G) commute: all 156 subgroups of sym:5 are stable
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "correspondence", "--group", "sym:5",
                             "--structure", "rho", "--transport", "1")
    assert code == 0 and err == ""
    assert out.startswith("156 stable subgroups")
    assert "transport under element 1: True" in out
    assert time.perf_counter() - start < 10


def test_correspondence_refuses_an_oversized_lattice_early(capsys):
    # the rho structure of elemab:2:7 has 29,212 stable subgroups
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "correspondence", "--group", "elemab:2:7",
                             "--structure", "rho")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "more than 4096 subgroups" in err
    assert time.perf_counter() - start < 5


def test_verify_list_and_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "metacyclic-cyclic-family" in out
    code, out, _ = run_cli(capsys, "verify",
                           "--only", "dihedral-family")
    assert code == 0
    assert out.count("PASS") == 1
    assert "1 passed, 0 failed" in out


def test_python_dash_m_hgslab_runs_the_cli():
    # a bare checkout runs the CLI as `PYTHONPATH=src python -m hgslab`
    src = str(Path(hgslab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hgslab", "verify", "--list"],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert b"metacyclic-cyclic-family" in proc.stdout


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


def test_closed_stdout_exits_without_a_traceback():
    # `hgslab hgs enumerate ... --json | head -c 100` used to end in a
    # BrokenPipeError traceback and exit 1; the pipe here has no reader
    # from the start, so the first write fails whatever the output's size
    src = str(Path(hgslab.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hgslab.cli", "hgs", "enumerate",
             "--group", "dihedral:32", "--type", "dihedral:32", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli_module.EXIT_CLOSED_STDOUT == 141
    assert proc.stderr == b""
