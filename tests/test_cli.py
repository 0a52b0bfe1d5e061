import gc
import hashlib
import json
import subprocess
import sys

import pytest

import psolv.cli as cli
import psolv.theorems as theorems
from psolv.battery import battery_for_group
from psolv.catalog import (DEFAULT_CATALOG, Report, build_group,
                           emit_report, parse_group)
from psolv.errors import InternalMismatch
from psolv.filtrations import ELL_ZERO_NOTE, Filtration
from psolv.group import trivial_group
from psolv.series import sylow


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as e:  # argparse usage errors
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(DEFAULT_CATALOG)
    assert lines[0].startswith("cyclic:2")


def test_analyze_text(capsys):
    code, out, err = run(capsys, "analyze", "--recipe", "symmetric:4",
                         "--p", "2")
    assert code == 0
    assert "symmetric:4 | analyze: report" in out
    assert "p_length=2" in out


def test_analyze_structured(capsys):
    code, out, err = run(capsys, "analyze", "--recipe", "symmetric:4",
                         "--p", "2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["statement_id"] == "analyze"
    assert doc["reports"][0]["verdict"]["parameters"]["p_length"] == 2


# sha256 of the one S8 analysis, the largest group the CLI is run on; its
# bytes are fixed, so an engine change that moves one of them is a bug
S8_REPORT_SHA256 = \
    "2457b9c860ee229ee321e7110037685b15168f58a64c7cb07db868caa5a049ee"


def test_analyze_s8_report_bytes_are_pinned(capsys):
    code, out, err = run(capsys, "analyze", "--recipe", "symmetric:8",
                         "--p", "2", "--format", "structured")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == S8_REPORT_SHA256


def test_ekr(capsys):
    code, out, err = run(capsys, "ekr", "--recipe", "dihedral:4",
                         "--p", "2", "--k", "2", "--r", "1")
    assert code == 0
    assert "order 2" in out
    code, out, err = run(capsys, "ekr", "--recipe", "dihedral:4",
                         "--p", "2", "--k", "2", "--r", "1",
                         "--format", "structured")
    doc = json.loads(out)
    assert doc["order"] == 2
    assert doc["pieces"] == [{"i": 1, "j": 1, "order": 2},
                             {"i": 2, "j": 0, "order": 2}]


def test_pf_verify_named_terms(capsys):
    code, out, err = run(capsys, "pf", "verify", "--recipe", "dihedral:4",
                         "--p", "2", "--ell", "1",
                         "--term", "full", "--term", "gamma:2",
                         "--term", "trivial")
    assert code == 0
    assert "fails condition 4" in out


def test_pf_verify_gens_token(capsys):
    code, out, err = run(capsys, "pf", "verify", "--recipe", "dihedral:4",
                         "--p", "2", "--ell", "1",
                         "--term", "full",
                         "--term", "gens:(1 2 3 4)",
                         "--term", "gens:(1 3)(2 4)",
                         "--term", "trivial")
    assert code == 0
    assert "fails condition 4 at term 2" in out
    assert "(1 3)(2 4)" in out


def test_pf_search(capsys):
    code, out, err = run(capsys, "pf", "search", "--recipe", "dihedral:4",
                         "--p", "2", "--ell", "1", "--normal", "full")
    assert code == 0
    assert "not_pf_embedded" in out


@pytest.mark.parametrize("normal, ell, want", [
    # the member of order 4 lists (3 4) before (1 2), so the start is
    # placed in the lattice from its generators, not by its list
    ("gens:(1 2);(3 4)", "1",
     {"ell": 1, "group_id": "wreath_cyclic:2:5", "n_order": 4, "p": 2,
      "outcome": {"status": "found", "nodes": 2, "notes": [], "filtration": {
          "prime": 2, "type_ell": 1, "ambient_order": 32, "term_orders": [4, 1],
          "terms": [[[0, 1, 3, 2, 4, 5, 6, 7, 8, 9], [1, 0, 2, 3, 4, 5, 6, 7, 8, 9]],
                    []]}}}),
    ("gens:(1 2)(3 4)(5 6)", "0",
     {"ell": 0, "group_id": "wreath_cyclic:2:5", "n_order": 2, "p": 2,
      "outcome": {"status": "not_pf_embedded", "nodes": 1,
                  "notes": [ELL_ZERO_NOTE], "filtration": None}}),
])
def test_pf_search_from_a_given_start_in_the_c2_5_lattice(capsys, normal, ell, want):
    # a start read from the command line, in the 374-member lattice of
    # C2 wr C5's Sylow 2-subgroup C2^5
    code, out, err = run(capsys, "pf", "search", "--recipe", "wreath_cyclic:2:5",
                         "--p", "2", "--normal", normal, "--ell", ell,
                         "--format", "structured")
    assert code == 0
    assert json.loads(out) == want


def test_pf_search_on_a_lattice_past_the_work_limit_is_exhausted(capsys):
    # C8^3 has only 16 subspaces of P/Phi(P), but its lattice needs more
    # than LATTICE_WORK_LIMIT units, so the search stops within seconds
    code, out, err = run(capsys, "pf", "search", "--recipe",
                         "product(cyclic:8,product(cyclic:8,cyclic:8))",
                         "--p", "2", "--normal", "sylow",
                         "--format", "structured")
    assert code == 0
    outcome = json.loads(out)["outcome"]
    assert outcome["status"] == "exhausted"
    assert outcome["notes"] == ["normal subgroup enumeration overflowed its cap"]


def test_verify_main(capsys):
    code, out, err = run(capsys, "verify", "main", "--recipe",
                         "symmetric:4", "--p", "2")
    assert code == 0
    assert "main: consistent" in out


def test_verify_prop3(capsys):
    code, out, err = run(capsys, "verify", "prop3", "--recipe",
                         "symmetric:3", "--p", "3",
                         "--term", "sylow", "--term", "trivial")
    assert code == 0
    assert "prop3: consistent" in out


@pytest.mark.parametrize("argv, expected", [
    (("main", "--recipe", "symmetric:4", "--p", "2"),
     lambda G: theorems.verify_main(G, 2)),
    (("thm6", "--recipe", "symmetric:4", "--p", "2", "--ell", "2"),
     lambda G: theorems.verify_thm6(G, 2, 2)),
    (("prop3", "--recipe", "symmetric:3", "--p", "3", "--term", "sylow",
      "--term", "trivial"),
     lambda G: theorems.verify_prop3(G, 3, sylow(G, 3), Filtration(
         sylow(G, 3), 3, 1, (sylow(G, 3), trivial_group(3))))),
    (("prop4", "--recipe", "symmetric:3", "--p", "3", "--normal", "sylow",
      "--term", "sylow", "--term", "trivial"),
     lambda G: theorems.verify_prop4(G, 3, sylow(G, 3), Filtration(
         sylow(G, 3), 3, 2, (sylow(G, 3), trivial_group(3))))),
])
def test_verify_subcommands_run_their_own_statement(capsys, argv, expected):
    code, out, err = run(capsys, "verify", *argv, "--format", "structured")
    assert code == 0
    recipe = argv[argv.index("--recipe") + 1]
    v = expected(build_group(recipe))
    assert v.statement == argv[0]
    assert out == emit_report([Report.of(recipe, v)], "structured")


def test_verify_lemma8_v4_token(capsys):
    code, out, err = run(capsys, "verify", "lemma8", "--recipe",
                         "symmetric:4", "--p", "2", "--normal", "V4",
                         "--l", "1")
    assert code == 0
    assert "lemma8: consistent" in out


def test_verify_o24(capsys):
    code, out, err = run(capsys, "verify", "o24", "--recipe", "symmetric:4",
                         "--p", "2", "--v", "V4", "--m", "sylow",
                         "--r", "1", "--l", "1")
    assert code == 0
    assert "o24: consistent" in out


def test_scan_question7(capsys):
    code, out, err = run(capsys, "scan", "question7", "--recipe",
                         "symmetric:4", "--p", "2")
    assert code == 0
    assert out.count("question7: report") == 2


def test_verify_hall_higman(capsys):
    code, out, err = run(capsys, "verify", "hall-higman", "--recipe",
                         "symmetric:3", "--p", "3")
    assert code == 0
    assert "hall-higman: consistent" in out


# AGL(2,3) on the 9 points of F_3^2, (x, y) at point 3x + y, order 432: its
# Sylow 3-subgroup 3^2:3 has exponent 3, so e = 1, and its 3-length is 2.
# l_3 <= e fails here; 3 is a Fermat prime, where Hall-Higman prove only 2e
AGL23 = {"degree": 9, "generators": [
    [3, 4, 5, 6, 7, 8, 0, 1, 2], [0, 1, 2, 4, 5, 3, 8, 6, 7],
    [0, 4, 8, 3, 7, 2, 6, 1, 5], [0, 1, 2, 6, 7, 8, 3, 4, 5]]}


def test_hall_higman_on_agl23_holds_at_the_fermat_prime_3(tmp_path, capsys):
    doc = tmp_path / "agl23.json"
    doc.write_text(json.dumps(AGL23))
    code, out, err = run(capsys, "verify", "hall-higman", "--file", str(doc),
                         "--p", "3")
    assert code == 0, out
    assert "hall-higman: consistent" in out
    assert "exponent_valuation=1" in out and "p_length=2" in out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_battery_on_agl23_finds_nothing(p):
    G = parse_group(json.dumps(AGL23))
    assert G.order() == 432
    reports = battery_for_group(G, "agl23", p, 7)
    assert reports
    assert [r.statement_id for r in reports
            if r.verdict["is_finding"]] == []


@pytest.mark.parametrize("argv", [["analyze"], ["verify", "hall-higman"]])
def test_a_degree_1_document_runs(tmp_path, capsys, argv):
    # the one-point group: every kernel that gathers by a tuple of indices
    # sees a single index here
    doc = tmp_path / "one.json"
    doc.write_text('{"degree": 1, "generators": [[0]]}')
    code, out, err = run(capsys, *argv, "--file", str(doc), "--p", "2")
    assert code == 0, err
    assert "sylow_order=1" in out


def test_group_from_file(tmp_path, capsys):
    doc = tmp_path / "v4.json"
    doc.write_text('{"degree": 4, "generators": [[1, 0, 3, 2], '
                   '[2, 3, 0, 1]]}')
    code, out, err = run(capsys, "analyze", "--file", str(doc), "--p", "2")
    assert code == 0
    assert f"file:{doc}" in out
    assert "group_order=4" in out


def test_usage_error_exits_1_not_2(capsys):
    code, out, err = run(capsys, "analyze", "--recipe", "symmetric:4")
    assert code == 1
    code, out, err = run(capsys, "analyze", "--p", "2")
    assert code == 1
    code, out, err = run(capsys, "nosuchcommand")
    assert code == 1


def test_domain_errors_exit_1(capsys):
    code, out, err = run(capsys, "analyze", "--recipe", "nosuch:4",
                         "--p", "2")
    assert code == 1
    assert "error" in err
    code, out, err = run(capsys, "analyze", "--recipe", "symmetric:4",
                         "--p", "4")
    assert code == 1
    assert "prime" in err
    code, out, err = run(capsys, "verify", "lemma8", "--recipe",
                         "symmetric:4", "--p", "2", "--normal", "bogus",
                         "--l", "1")
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize("token", ["gamma:x", "ekr:1:y", "gens:(1 2",
                                   "gens:(0 1)"])
def test_malformed_subgroup_token_exits_1(capsys, token):
    code, out, err = run(capsys, "pf", "verify", "--recipe", "dihedral:4",
                         "--p", "2", "--term", token)
    assert code == 1
    assert err.startswith("psolv: error:")
    assert repr(token) in err


def test_cycle_text_errors_name_points_as_written(capsys):
    code, out, err = run(capsys, "pf", "verify", "--recipe", "symmetric:3",
                         "--p", "3", "--term", "gens:(1 2)(2 3)")
    assert code == 1
    assert "point 2 appears in two cycles" in err


def test_cap_flags_are_gone(capsys):
    code, out, err = run(capsys, "analyze", "--enum-cap", "5", "--recipe",
                         "symmetric:4", "--p", "2")
    assert code == 1
    assert "unrecognized arguments: --enum-cap" in err


@pytest.mark.parametrize("argv", [
    ("pf", "search", "--recipe", "dihedral:4", "--p", "2", "--normal", "full"),
    ("scan", "question7", "--recipe", "dihedral:4", "--p", "2"),
])
def test_search_budget_flag_is_gone(capsys, argv):
    code, out, err = run(capsys, *argv, "--search-budget", "5")
    assert code == 1
    assert "unrecognized arguments: --search-budget" in err


def test_missing_file_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", "--file",
                         str(tmp_path / "no.json"), "--p", "2")
    assert code == 1
    assert "error" in err


def test_oversized_degree_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", "--recipe", "cyclic:100000",
                         "--p", "2")
    assert code == 1
    assert err.startswith("psolv: error:")
    assert "100000" in err
    doc = tmp_path / "big.json"
    doc.write_text('{"degree": 100000, "generators": []}')
    code, out, err = run(capsys, "analyze", "--file", str(doc), "--p", "2")
    assert code == 1
    assert err.startswith("psolv: error:")
    assert "degree" in err


def test_oversized_order_exits_1_before_any_chain(capsys, monkeypatch):
    import psolv.group

    def refuse(*args):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(psolv.group, "StabilizerChain", refuse)
    code, out, err = run(capsys, "analyze", "--recipe", "symmetric:64",
                         "--p", "2")
    assert code == 1
    assert err.startswith("psolv: error:")
    assert "order" in err


def _run_child(*argv, timeout=60):
    # the real command line in a child process, so a hang fails the test
    # through the timeout and a traceback shows up on stderr
    done = subprocess.run([sys.executable, "-m", "psolv.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def test_document_group_past_the_cap_fails_during_the_chain_build(tmp_path):
    # S64 on 64 points, from (1 2) and (1 2 ... 64): the degree is within
    # the ceiling, and the stabilizer-chain build is stopped once the
    # orders of its transversals multiply past DEFAULT_ENUM_CAP
    doc = tmp_path / "s64.json"
    doc.write_text(json.dumps({"degree": 64, "generators": [
        [1, 0] + list(range(2, 64)), list(range(1, 64)) + [0]]}))
    code, out, err = _run_child("analyze", "--file", str(doc), "--p", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("psolv: error:") and err.count("\n") == 1
    assert "200000" in err


def test_document_that_is_not_utf8_exits_1(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_bytes(b"\xff\xfe{")
    code, out, err = _run_child("analyze", "--file", str(doc), "--p", "2")
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("psolv: error:") and err.count("\n") == 1
    assert "UTF-8" in err


def _nested_product(depth):
    recipe = "cyclic:1"
    for _ in range(depth):
        recipe = f"product({recipe},cyclic:1)"
    return recipe


def _one_error_line(code, out, err):
    return (code == 1 and out == "" and "Traceback" not in err
            and err.startswith("psolv: error:") and err.count("\n") == 1)


@pytest.mark.parametrize("statement", ["main", "thm6"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_type_past_the_length_cap_exits_1(statement, fmt):
    # p^(ell+1) has more than 4300 digits at ell = 100000; the type is
    # refused before anything is computed
    code, out, err = _run_child("verify", statement, "--recipe", "dihedral:4",
                                "--p", "2", "--ell", "100000",
                                "--format", fmt, timeout=20)
    assert _one_error_line(code, out, err), err
    assert "between 1 and 64" in err


def test_o24_exponents_past_the_length_cap_exit_1():
    # the output grows with r * (r + l), so r + l is bounded like a type
    code, out, err = _run_child("verify", "o24", "--recipe", "dihedral:4",
                                "--p", "2", "--v", "full", "--m", "sylow",
                                "--r", "20000", "--l", "0", timeout=20)
    assert _one_error_line(code, out, err), err
    assert "r + l must be between 1 and 64" in err


def test_deeply_nested_recipe_exits_1():
    code, out, err = _run_child("analyze", "--recipe", _nested_product(500),
                                "--p", "2")
    assert _one_error_line(code, out, err), err
    assert "nested" in err
    # one level within the limit still fails, on the degree ceiling
    code, out, err = _run_child("analyze", "--recipe", _nested_product(256),
                                "--p", "2")
    assert _one_error_line(code, out, err), err
    assert "257 points" in err


@pytest.mark.parametrize("depth", [1000, 100_000])
def test_deeply_nested_document_exits_1(tmp_path, depth):
    # how deep json.loads goes before it gives up depends on the Python
    # version; past that, the document is refused as nested too deeply
    doc = tmp_path / "deep.json"
    doc.write_text('{"degree": 2, "generators": ' + "[" * depth + "]" * depth
                   + "}")
    code, out, err = _run_child("analyze", "--file", str(doc), "--p", "2")
    assert _one_error_line(code, out, err), err
    if depth == 100_000:
        assert "nested too deeply" in err


def test_bad_group_document_reports_location(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{"degree": 3, "generators": [[0, 1]]}')
    code, out, err = run(capsys, "analyze", "--file", str(doc), "--p", "2")
    assert code == 1
    assert "generators[0]" in err


def test_the_collector_is_paused_only_while_a_command_runs(tmp_path, capsys,
                                                          monkeypatch):
    seen = []
    inner = cli.analyze_group

    def recording(G, p):
        seen.append(gc.isenabled())
        return inner(G, p)

    monkeypatch.setattr(cli, "analyze_group", recording)
    assert gc.isenabled()
    code, out, err = run(capsys, "analyze", "--recipe", "symmetric:3",
                         "--p", "2")
    assert code == 0, err
    assert seen == [False]
    assert gc.isenabled()
    for argv in (("--recipe", "symmetric:4", "--p", "4"),
                 ("--file", str(tmp_path / "no.json"), "--p", "2")):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 1
        assert err.startswith("psolv: error:")
        assert gc.isenabled()


def test_the_collector_is_back_on_after_an_internal_mismatch(monkeypatch):
    def broken(G, p):
        raise InternalMismatch("forced")

    monkeypatch.setattr(cli, "analyze_group", broken)
    with pytest.raises(InternalMismatch):
        cli.main(["analyze", "--recipe", "symmetric:3", "--p", "2"])
    assert gc.isenabled()


def test_a_caller_with_the_collector_off_finds_it_off(capsys):
    gc.disable()
    try:
        for p in ("2", "4"):
            run(capsys, "analyze", "--recipe", "symmetric:3", "--p", p)
            assert not gc.isenabled()
    finally:
        gc.enable()


def _cyclic_garbage(capsys, *argv):
    """The number of objects the cyclic collector frees after one command
    run with the collector off."""
    gc.collect()
    gc.disable()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        gc.enable()
    assert code == 0, err
    return gc.collect()


def test_a_commands_cyclic_garbage_does_not_grow_with_its_work(capsys):
    # cli.main pauses the collector while a command runs; that defers no
    # garbage that grows with the groups, only what argparse and json leave
    sweep = ("catalog", "run", "--p", "2", "--format", "structured")
    assert (_cyclic_garbage(capsys, *sweep)
            == _cyclic_garbage(capsys, *sweep, "--only", "cyclic:2"))
    analyze = ("analyze", "--p", "2", "--format", "structured", "--recipe")
    assert (_cyclic_garbage(capsys, *analyze, "symmetric:8")
            == _cyclic_garbage(capsys, *analyze, "symmetric:3"))


def test_finding_exits_2(capsys, monkeypatch):
    bad = Report("cyclic:4", "prop3",
                 {"statement": "prop3", "hypothesis_holds": True,
                  "conclusion_holds": False, "parameters": {},
                  "witnesses": [], "notes": [], "report_only": False,
                  "is_finding": True})
    monkeypatch.setattr(cli, "run_catalog",
                        lambda p, seed, only: [bad])
    code, out, err = run(capsys, "catalog", "run", "--p", "2")
    assert code == 2
    assert "FINDING" in out


def test_catalog_run_only_filter(capsys):
    code, out, err = run(capsys, "catalog", "run", "--p", "2",
                         "--only", "cyclic:15")
    assert code == 0
    assert "cyclic:15" in out
    assert "dihedral" not in out


def test_seed_env_default(monkeypatch):
    # PSOLV_SEED is not read: the default seed is 0 whatever it holds
    for value in ("123", "junk"):
        monkeypatch.setenv("PSOLV_SEED", value)
        parser = cli.build_parser()
        assert parser.parse_args(["catalog", "run", "--p", "2"]).seed == 0


def test_seed_flag_overrides_env(monkeypatch):
    monkeypatch.setenv("PSOLV_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["catalog", "run", "--p", "2", "--seed", "9"])
    assert args.seed == 9


def test_seed_is_refused_where_nothing_reads_it(capsys):
    # only catalog run samples; analyze accepts --seed unread, since
    # perfbench passes it to the analyze-s8 command
    for argv in (("ekr", "--recipe", "cyclic:2", "--p", "2", "--k", "1", "--r", "1"),
                 ("verify", "main", "--recipe", "cyclic:2", "--p", "2"),
                 ("scan", "question7", "--recipe", "cyclic:2", "--p", "2")):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1
        assert "unrecognized arguments: --seed 1" in err
    code, out, err = run(capsys, "analyze", "--recipe", "cyclic:2", "--p", "2",
                         "--seed", "1")
    assert code == 0


def test_a_huge_prime_is_decided_at_once():
    # a prime near 10**17, whose square root is far too large for trial
    # division; Miller-Rabin answers at once
    code, out, err = _run_child("analyze", "--recipe", "cyclic:2",
                                "--p", "100000000000000003", timeout=20)
    assert code == 0, err
    assert "p=100000000000000003" in out


@pytest.mark.parametrize("p, reason", [
    ("1000000000000000001", "prime"),  # 101 * 9901 * 999999000001
    ("18446744073709551629", "2**64"),  # 2**64 + 13, past the exact range
])
def test_a_huge_p_that_is_not_accepted_exits_1(p, reason):
    code, out, err = _run_child("analyze", "--recipe", "cyclic:2", "--p", p,
                                timeout=20)
    assert code == 1
    assert out == ""
    assert err.startswith("psolv: error:") and err.count("\n") == 1
    assert reason in err
