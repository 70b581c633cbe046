import json
import subprocess
import sys

import pytest

from matchseq import (CYCLIC, LINEAR, complete, cycle,
                      matching_number_bruteforce, path, read_edge_list,
                      read_ordering, write_edge_list)
from matchseq import catalog
from matchseq.cli import main
from matchseq.orderings import MatchingNumberReport
from matchseq.solver import SolveBudget


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct

def test_construct_k44_matrix_byte_exact(capsys, tmp_path, fixtures_dir):
    out_file = tmp_path / "k44.ord"
    code, out, _ = run_cli(capsys, "construct", "--family", "bipartite",
                           "--params", "4", "4", "--matrix",
                           "--out", str(out_file))
    assert code == 0
    matrix, value_line = out.rsplit("\n", 2)[0], out.rstrip().splitlines()[-1]
    assert matrix + "\n" == (fixtures_dir / "k44_matrix.txt").read_text()
    assert value_line == "value=3 predicted=3"


def test_construct_complete6_cyclic(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "--family", "complete",
                           "--params", "6", "--mode", "cyclic",
                           "--out", str(tmp_path / "o"))
    assert code == 0
    assert "value=2 predicted=2" in out


def test_construct_cycle7(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "--family", "cycle",
                           "--params", "7", "--mode", "cyclic",
                           "--out", str(tmp_path / "o"))
    assert code == 0
    assert "value=3 predicted=3" in out


def test_construct_prints_the_ordering_without_out(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "cycle",
                           "--params", "7", "--mode", "cyclic")
    assert code == 0
    line, value_line = out.splitlines()
    assert read_ordering(line, cycle(7), CYCLIC).sequence == (0, 2, 4, 6, 1, 3, 5)
    assert value_line == "value=3 predicted=3"


def test_construct_invalid_params_exit2(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "cycle",
                           "--params", "2", "--mode", "cyclic")
    assert code == 2
    assert "error" in err


def test_construct_wrong_arity_exit2(capsys):
    code, out, err = run_cli(capsys, "construct", "--family", "doubled_complete",
                             "--params", "5", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_construct_bipartite_cyclic(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "bipartite",
                           "--params", "3", "3", "--mode", "cyclic")
    assert code == 0
    assert out.splitlines()[-1] == "value=2 predicted=2"


# ---------------------------------------------------------------------------
# check, and the construct -> check round trip

def _construct_files(capsys, tmp_path, *family_args):
    graph_file = tmp_path / "g.txt"
    ord_file = tmp_path / "o.txt"
    code, out, _ = run_cli(capsys, "construct", *family_args,
                           "--out", str(ord_file), "--graph-out", str(graph_file))
    assert code == 0
    value = int(out.rstrip().splitlines()[-1].split()[0].split("=")[1])
    return graph_file, ord_file, value


@pytest.mark.parametrize("family_args,mode", [
    (("--family", "complete", "--params", "7", "--mode", "linear"), "linear"),
    (("--family", "cycle", "--params", "12", "--mode", "cyclic"), "cyclic"),
    (("--family", "doubled_complete", "--params", "5", "--mode", "cyclic"), "cyclic"),
    (("--family", "bipartite", "--params", "4", "6"), "linear"),
])
def test_construct_check_round_trip(capsys, tmp_path, family_args, mode):
    graph_file, ord_file, value = _construct_files(capsys, tmp_path, *family_args)
    code, out, _ = run_cli(capsys, "check", "--graph", str(graph_file),
                           "--ordering", str(ord_file), "--mode", mode)
    assert code == 0
    assert out.splitlines()[0] == f"value={value}"


def test_check_reports_smaller_value_after_label_swap(capsys, tmp_path):
    graph_file, ord_file, value = _construct_files(
        capsys, tmp_path, "--family", "bipartite", "--params", "4", "4")
    tokens = ord_file.read_text().split()
    # positions 1 and 5 hold same-row edges; the swap parks two same-column
    # edges next to each other, so the value must drop
    tokens[0], tokens[4] = tokens[4], tokens[0]
    ord_file.write_text(" ".join(tokens) + "\n")
    g = read_edge_list(graph_file.read_text())
    oracle = matching_number_bruteforce(
        read_ordering(ord_file.read_text(), g, LINEAR))
    code, out, _ = run_cli(capsys, "check", "--graph", str(graph_file),
                           "--ordering", str(ord_file), "--mode", "linear")
    assert code == 0
    reported = int(out.splitlines()[0].split("=")[1])
    assert reported == oracle < value


def test_check_k46_historical_matrix(capsys, tmp_path, fixtures_dir):
    from matchseq import (FamilySpec, biadjacency_layout, complete_bipartite,
                          parse_biadjacency, write_ordering)
    g = complete_bipartite(4, 6)
    rows, cols = biadjacency_layout(FamilySpec("complete_bipartite", (4, 6)))
    o = parse_biadjacency((fixtures_dir / "k46_matrix.txt").read_text(),
                          g, rows, cols, LINEAR)
    graph_file = tmp_path / "g.txt"
    ord_file = tmp_path / "o.txt"
    graph_file.write_text(write_edge_list(g))
    ord_file.write_text(write_ordering(o))
    code, out, _ = run_cli(capsys, "check", "--graph", str(graph_file),
                           "--ordering", str(ord_file), "--mode", "linear")
    assert code == 0
    assert out.splitlines()[0] == "value=4"


def test_check_single_edge(capsys, tmp_path):
    graph_file = tmp_path / "g.txt"
    ord_file = tmp_path / "o.txt"
    graph_file.write_text("2 1\n0 1\n")
    ord_file.write_text("0-1\n")
    code, out, _ = run_cli(capsys, "check", "--graph", str(graph_file),
                           "--ordering", str(ord_file), "--mode", "cyclic")
    assert code == 0
    assert "value=1" in out
    assert "matching" in out


def test_check_parse_error_has_line_number(capsys, tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("3 2\n0 1\n1 9\n")
    ord_file = tmp_path / "o.txt"
    ord_file.write_text("0-1 1-2\n")
    code, _, err = run_cli(capsys, "check", "--graph", str(graph_file),
                           "--ordering", str(ord_file), "--mode", "linear")
    assert code == 2
    assert "line 3" in err


def test_check_not_a_permutation_exit2(capsys, tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("3 3\n0 1\n1 2\n0 2\n")
    ord_file = tmp_path / "o.txt"
    ord_file.write_text("0-1 0-1 0-2\n")
    code, _, err = run_cli(capsys, "check", "--graph", str(graph_file),
                           "--ordering", str(ord_file), "--mode", "linear")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("check", "--graph", "BAD", "--ordering", "ORD", "--mode", "linear"),
    ("check", "--graph", "GOOD", "--ordering", "BAD", "--mode", "linear"),
    ("solve", "--graph", "BAD", "--mode", "linear"),
    ("explore", "q3", "--graph", "BAD"),
], ids=["check-graph", "check-ordering", "solve", "explore-q3"])
def test_non_utf8_input_exit2(capsys, tmp_path, argv):
    paths = {"GOOD": tmp_path / "g.txt", "ORD": tmp_path / "o.txt",
             "BAD": tmp_path / "bad.txt"}
    paths["GOOD"].write_text("3 2\n0 1\n1 2\n")
    paths["ORD"].write_text("0-1 1-2\n")
    paths["BAD"].write_bytes(b"\xff\xfe 3 2\n0 1\n")
    code, _, err = run_cli(capsys, *(str(paths.get(a, a)) for a in argv))
    assert code == 2
    assert err.startswith("error:")
    assert str(paths["BAD"]) in err


# ---------------------------------------------------------------------------
# solve

def _write_graph(tmp_path, g, name="g.txt"):
    f = tmp_path / name
    f.write_text(write_edge_list(g))
    return f


def test_solve_k5_cyclic_value(capsys, tmp_path):
    f = _write_graph(tmp_path, complete(5))
    code, out, _ = run_cli(capsys, "solve", "--graph", str(f), "--mode", "cyclic")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "value_found"
    assert payload["value"] == 1
    assert payload["witness"]


def test_solve_k5_cyclic_target2_nonexistence(capsys, tmp_path):
    f = _write_graph(tmp_path, complete(5))
    code, out, _ = run_cli(capsys, "solve", "--graph", str(f), "--mode", "cyclic",
                           "--target", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "nonexistence_certified"
    assert payload["witness"] is None
    assert payload["nodes"] > 0


def test_solve_p7_linear(capsys, tmp_path):
    from matchseq import path
    f = _write_graph(tmp_path, path(7))
    code, out, _ = run_cli(capsys, "solve", "--graph", str(f), "--mode", "linear")
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_solve_budget_exhaustion_exit3(capsys, tmp_path):
    f = _write_graph(tmp_path, complete(7))
    code, out, _ = run_cli(capsys, "solve", "--graph", str(f), "--mode", "cyclic",
                           "--budget-seconds", "1e-9")
    assert code == 3
    assert json.loads(out)["status"] == "budget_exceeded"  # JSON still emitted


def test_solve_k9_cyclic_target3_found(capsys, tmp_path):
    # the ascending-id DFS alone needs more than 20M nodes here; the greedy
    # restarts at its budget checkpoints find a witness within a few slices
    f = _write_graph(tmp_path, complete(9))
    code, out, _ = run_cli(capsys, "solve", "--graph", str(f), "--mode", "cyclic",
                           "--target", "3", "--budget-seconds", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "value_found"
    assert payload["greedy_placements"] > 0
    assert payload["witness"]


def test_solve_long_path_target_no_traceback(tmp_path):
    # 1,499 positions: deeper than Python's default recursion limit
    f = _write_graph(tmp_path, path(1500))
    proc = subprocess.run(
        [sys.executable, "-m", "matchseq.cli", "solve", "--graph", str(f),
         "--mode", "linear", "--target", "749"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "value_found"
    assert "Traceback" not in proc.stderr


def test_solve_long_cycle_without_target_no_traceback(tmp_path):
    # no --target: the matching bound of a 1,201-vertex host comes first
    f = _write_graph(tmp_path, cycle(1201))
    proc = subprocess.run(
        [sys.executable, "-m", "matchseq.cli", "solve", "--graph", str(f),
         "--mode", "linear"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 600
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS as on Linux")
def test_solve_two_edges_on_10_8_vertices_in_1_gib(tmp_path):
    # the solver's degrees and incidence masks over 10^8 vertices raised
    # MemoryError from _tables in a process limited to 1 GiB
    import resource

    def limit():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    f = tmp_path / "two.txt"
    f.write_text("100000000 2\n0 1\n2 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "matchseq.cli", "solve", "--graph", str(f),
         "--mode", "linear", "--budget-seconds", "1"],
        capture_output=True, text=True, preexec_fn=limit)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 2


def _k8_cyclic_files(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "construct", "--family", "complete", "--params", "8",
                         "--mode", "cyclic", "--out", str(tmp_path / "k8.ord"),
                         "--graph-out", str(tmp_path / "k8.txt"))
    assert code == 0
    return tmp_path / "k8.txt", tmp_path / "k8.ord"


def test_solve_seeded_with_an_ordering(capsys, tmp_path):
    # the construction attains 3: only d = nu = 4 is left, refuted in 0
    # nodes by spacing's cyclic equality case (4 nodes before it: 4 * 7 =
    # 28 = m on K8), and the seed is the witness
    graph, ordering = _k8_cyclic_files(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "solve", "--graph", str(graph), "--mode", "cyclic",
                           "--ordering", str(ordering))
    assert code == 0
    payload = json.loads(out)
    assert (payload["status"], payload["value"], payload["nodes"],
            payload["greedy_placements"]) == ("value_found", 3, 0, 0)
    assert payload["witness"] == ordering.read_text().strip()


def test_solve_reports_the_seed_value(capsys, tmp_path):
    # out of budget, value and certified_upper are unset, and the seed, the
    # witness, proves 3: seed_value says so
    code, _, _ = run_cli(capsys, "construct", "--family", "complete", "--params", "9",
                         "--mode", "cyclic", "--out", str(tmp_path / "k9.ord"),
                         "--graph-out", str(tmp_path / "k9.txt"))
    assert code == 0
    graph, ordering = tmp_path / "k9.txt", tmp_path / "k9.ord"
    code, out, _ = run_cli(capsys, "solve", "--graph", str(graph), "--mode", "cyclic",
                           "--ordering", str(ordering), "--budget-seconds", "0.000001")
    assert code == 3
    payload = json.loads(out)
    assert (payload["status"], payload["value"], payload["certified_upper"],
            payload["seed_value"]) == ("budget_exceeded", None, None, 3)
    assert payload["witness"] == ordering.read_text().strip()
    code, out, _ = run_cli(capsys, "solve", "--graph", str(graph), "--mode", "linear",
                           "--ordering", str(ordering), "--budget-seconds", "0.000001")
    assert json.loads(out)["seed_value"] == 3  # K9's construction, read linearly
    code, out, _ = run_cli(capsys, "solve", "--graph", str(graph), "--mode", "cyclic",
                           "--budget-seconds", "0.000001")
    assert code == 3 and json.loads(out)["seed_value"] is None


def test_solve_ordering_with_target_exit2(capsys, tmp_path):
    graph, ordering = _k8_cyclic_files(capsys, tmp_path)
    code, out, err = run_cli(capsys, "solve", "--graph", str(graph), "--mode", "cyclic",
                             "--ordering", str(ordering), "--target", "3")
    assert (code, out) == (2, "")
    assert "--ordering" in err and "--target" in err


def test_solve_ordering_of_another_graph_exit2(capsys, tmp_path):
    _, ordering = _k8_cyclic_files(capsys, tmp_path)
    f = _write_graph(tmp_path, complete(7))
    code, out, err = run_cli(capsys, "solve", "--graph", str(f), "--mode", "cyclic",
                             "--ordering", str(ordering))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_solve_bad_target_exit2(capsys, tmp_path):
    f = _write_graph(tmp_path, complete(4))
    code, _, err = run_cli(capsys, "solve", "--graph", str(f), "--mode", "linear",
                           "--target", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("solve", "--mode", "cyclic", "--budget-seconds", "0"),
    ("solve", "--mode", "linear", "--budget-seconds", "nan"),
    ("explore", "q2", "--budget-seconds", "-1"),
    ("explore", "q3", "--budget-seconds", "nan"),
    ("solve", "--mode", "linear", "--budget-seconds", "abc"),
], ids=["solve-0", "solve-nan", "explore-q2-negative", "explore-q3-nan", "solve-abc"])
def test_bad_budget_seconds_exit2(capsys, tmp_path, argv):
    # a usage error, not a traceback from SolveBudget or a run without a deadline
    f = _write_graph(tmp_path, complete(5))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--graph", str(f)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --budget-seconds: must be a positive number" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify and explore

def test_verify_small_all_pass(capsys, tmp_path):
    json_out = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--max-complete", "5",
                           "--max-cycle", "6", "--exact-up-to-edges", "8",
                           "--json-out", str(json_out))
    assert code == 0
    assert "all pass" in out
    payload = json.loads(json_out.read_text())
    assert payload["all_pass"] is True
    assert all(r["status"] == "pass" for r in payload["rows"])


def test_verify_default_ranges_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "158 cases, all pass" in out


def _tiny_budget_verify(monkeypatch):
    """Make ``verify`` run its exact solves at a 10-node budget."""
    full = catalog.verify_families
    monkeypatch.setattr(catalog, "verify_families", lambda **kw: full(
        **kw, max_bipartite=3, max_circulant=3, doubled_ms=(2,),
        budget=SolveBudget(max_nodes=10)))


def test_verify_unresolved_rows_exit3(capsys, tmp_path, monkeypatch):
    _tiny_budget_verify(monkeypatch)
    json_out = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--max-complete", "6", "--max-cycle", "6",
                           "--exact-up-to-edges", "16", "--json-out", str(json_out))
    assert code == 3
    assert "all pass" not in out
    assert "2 UNRESOLVED" in out and " UNRES " in out
    payload = json.loads(json_out.read_text())
    assert payload["all_pass"] is False
    statuses = [r["status"] for r in payload["rows"]]
    assert statuses.count("unresolved") == 2  # K5 cyclic, C6 linear
    assert set(statuses) == {"pass", "unresolved"}


def test_verify_failure_outranks_unresolved_exit1(capsys, monkeypatch):
    _tiny_budget_verify(monkeypatch)
    monkeypatch.setattr(catalog, "matching_number",
                        lambda o: MatchingNumberReport(0, None))  # every row mismatches
    code, out, _ = run_cli(capsys, "verify", "--max-complete", "6", "--max-cycle", "6",
                           "--exact-up-to-edges", "16")
    assert code == 1
    assert "FAILURES PRESENT" in out


@pytest.mark.parametrize("argv,shown", [
    (("explore", "q1", "--k-max", "2"), "  1       ?        ?      ?       ?"),
    (("explore", "q3"), "cms(2G) = ?"),
    (("explore", "q2", "--max-n", "3"), "(PARTIAL: budget hit)"),
], ids=["q1", "q3", "q2"])
def test_explore_budget_hit_exit3(capsys, tmp_path, argv, shown):
    graph = () if argv[1] == "q2" else ("--graph", str(_write_graph(tmp_path, complete(5))))
    code, out, _ = run_cli(capsys, *argv, *graph, "--budget-seconds", "1e-9")
    assert code == 3
    assert shown in out  # what was computed is still printed


def test_explore_q2(capsys):
    code, out, _ = run_cli(capsys, "explore", "q2", "--max-n", "4")
    assert code == 0
    assert "max ms-cms gap = 0" in out


def test_explore_q2_five_vertices(capsys):
    code, out, _ = run_cli(capsys, "explore", "q2", "--max-n", "5")
    assert code == 0
    assert "max ms-cms gap = 1" in out


def test_explore_q3_equality(capsys, tmp_path):
    f = _write_graph(tmp_path, complete(5))
    code, out, _ = run_cli(capsys, "explore", "q3", "--graph", str(f))
    assert code == 0
    assert "equal   = True" in out


def test_explore_q1(capsys, tmp_path):
    from matchseq import path
    f = _write_graph(tmp_path, path(3))
    code, out, _ = run_cli(capsys, "explore", "q1", "--graph", str(f),
                           "--k-max", "2")
    assert code == 0
    assert "matching number p = 1" in out


@pytest.mark.parametrize("argv", [
    ("q1", "--k-max", "0"), ("q1", "--k-max", "-2"),
    ("q2", "--max-n", "1"), ("q2", "--max-n", "-1"),
], ids=["q1-k0", "q1-k-negative", "q2-n1", "q2-n-negative"])
def test_explore_empty_range_exit2(capsys, tmp_path, argv):
    # an input error, not an empty table with exit 0
    graph = ("--graph", str(_write_graph(tmp_path, complete(3)))) if argv[0] == "q1" else ()
    code, out, err = run_cli(capsys, "explore", *argv, *graph)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_explore_missing_graph_exit2(capsys):
    code, _, err = run_cli(capsys, "explore", "q1")
    assert code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "matchseq.cli", "construct", "--family",
         "complete", "--params", "4", "--mode", "cyclic"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "value=1 predicted=1" in proc.stdout
