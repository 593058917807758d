import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import syrdyn.chains as chains_module
import syrdyn.cli as cli
from syrdyn.chains import search_family_witness
from syrdyn.cli import _parse_bound, main
from syrdyn.numeric import max_str_digits


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundParsing:
    def test_plain(self):
        assert _parse_bound("10000") == 10000

    def test_scientific(self):
        assert _parse_bound("1e6") == 10**6
        assert _parse_bound("25e2") == 2500

    def test_power(self):
        assert _parse_bound("10^9") == 10**9
        assert _parse_bound("2^16") == 65536

    def test_rejects_junk(self):
        import argparse
        for bad in ("abc", "1.5", "1e-3", "2^-1", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_bound(bad)

    def test_rejects_giants_before_building_them(self):
        # a bound may have as many digits as int -> str prints, and no more
        import argparse
        digits = max_str_digits()
        assert _parse_bound(f"9e{digits - 1}") == 9 * 10 ** (digits - 1)
        for big in ("10^100000000", "2^70000", "7e100000000", f"1e{digits}", "2^65536"):
            with pytest.raises(argparse.ArgumentTypeError, match=f"more than {digits} digits"):
                _parse_bound(big)

    def test_giant_limit_exits_one_at_once(self, capsys):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "traj", "collatz", "7", "--max-value", "10^100000000")
        assert code == 1
        assert "digits" in err
        assert time.perf_counter() - t0 < 5  # building 10^(10^8) takes minutes


@pytest.mark.parametrize("argv", [
    ["traj", "collatz", "2^20000", "--max-value", "2^20001"],
    ["partition", "collatz", "--bound", "10", "--max-value", "2^15000"],
    ["cycles", "collatz", "--bound", "10", "--max-value", "2^15000"],
    ["tree", "collatz", "--root", "2^20000", "--depth", "1"],
    ["tree", "collatz", "--root", "3", "--depth", "20000"],  # a doubling chain from 3
    ["chains", str((1 << 14000) - 1)],  # its family climbs to 3^14000 - 1
], ids=["traj", "partition", "cycles", "tree-root", "tree-depth", "chains"])
def test_values_too_long_to_print_exit_one(argv, capsys):
    # refused on parsing (argparse prints its usage line first) or by the
    # engine, never by int -> str in the middle of the output
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "error: " in err.splitlines()[-1] and "Traceback" not in err
    assert f"more than {max_str_digits()} digits" in err


@pytest.mark.parametrize("argv", [
    ["traj", "collatz", "27"],
    ["partition", "collatz", "--bound", "10"],
    ["scan", "collatz", "--start", "1", "--end", "10"],
    ["cycles", "collatz", "--bound", "10"],
    ["measure", "collatz", "--depth", "3"],
])
def test_huge_step_budget_exits_one_before_any_walk(argv, capsys, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk started")

    for name in ("iterate", "partition", "find_cycles", "_fan_out"):
        monkeypatch.setattr(cli, name, no_walk)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--max-steps", "1e12")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert "max_steps 1000000000000 is above the cap" in err
    assert peak < 2**20
    assert time.perf_counter() - t0 < 1


class TestExitCodes:
    def test_traj_convergent(self, capsys):
        code, out, _ = run(capsys, "traj", "collatz", "27")
        assert code == 0
        assert json.loads(out)["status"] == "EnteredCycle"

    def test_traj_limit_hit(self, capsys):
        code, out, _ = run(capsys, "traj", "pxr:p=5,r=1", "7", "--max-value", "1e6")
        assert code == 2
        assert json.loads(out)["status"] == "HitValueLimit"

    def test_bad_descriptor(self, capsys):
        code, _, err = run(capsys, "traj", "nonsense", "5")
        assert code == 1
        assert "error" in err

    def test_bad_usage(self, capsys):
        code, _, err = run(capsys, "traj", "collatz")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "traj" in out

    def test_validation_error_from_engine(self, capsys):
        # nothing can close a cycle in a single step, so no seeds exist
        code, _, err = run(capsys, "measure", "collatz", "--depth", "3",
                           "--cycle-bound", "5", "--max-steps", "1")
        assert code == 1
        assert "no cycles" in err

    def test_scan_range_validation(self, capsys):
        code, _, _ = run(capsys, "scan", "collatz", "--start", "9", "--end", "3")
        assert code == 1


class TestTraj:
    def test_golden_payload(self, capsys):
        _, out, _ = run(capsys, "traj", "collatz", "7")
        doc = json.loads(out)
        assert doc["steps"] == ["7", "11", "17", "26", "13", "20", "10", "5", "8", "4", "2", "1"]
        assert doc["entry_index"] == 10
        assert doc["cycle"] == ["1", "2"]
        assert doc["max_excursion"] == "26"

    def test_entry_index_zero(self, capsys):
        _, out, _ = run(capsys, "traj", "collatz", "1")
        assert json.loads(out)["entry_index"] == 0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code, out, _ = run(capsys, "traj", "collatz", "27", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["status"] == "EnteredCycle"
        assert path.read_text().endswith("\n")


class TestCycles:
    def test_collatz(self, capsys):
        _, out, _ = run(capsys, "cycles", "collatz", "--bound", "10000")
        assert json.loads(out)["cycles"] == [["1", "2"]]

    def test_seven_x_plus_one(self, capsys):
        _, out, _ = run(capsys, "cycles", "pxr:p=7,r=1", "--bound", "100")
        assert ["1", "4", "2"] in json.loads(out)["cycles"]

    def test_181(self, capsys):
        _, out, _ = run(capsys, "cycles", "pxr:p=181,r=1", "--bound", "200",
                        "--max-value", "1e9")
        doc = json.loads(out)
        assert doc["count"] >= 2


class TestPartition:
    def test_summary_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "p.csv"
        code, out, _ = run(capsys, "partition", "collatz", "--bound", "12",
                           "--csv", str(csv_path))
        assert code == 0
        assert json.loads(out)["counts"] == {"C": 2, "D1": 10, "D2?": 0}
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,class,steps_to_cycle,max_excursion"
        assert lines[7] == "7,D1,10,26"


class TestMeasure:
    def test_golden_values(self, capsys):
        _, out, _ = run(capsys, "measure", "collatz", "--depth", "4", "--trials", "5")
        doc = json.loads(out)
        nodes = {n["value"]: n for n in doc["nodes"]}
        assert nodes["4"]["cycle_local"]["dyadic"] == "1/2^4"
        assert nodes["8"]["cycle_local"]["dyadic"] == "1/2^6"
        assert doc["power_bound"]["violations"] == 0
        assert doc["power_bound"]["seed"] == 1729

    def test_max_n_clamped_to_depth(self, capsys):
        code, out, _ = run(capsys, "measure", "collatz", "--depth", "2", "--trials", "2")
        assert code == 0
        assert json.loads(out)["power_bound"]["max_n"] == 2

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_depth_below_one_refused_before_cycle_search(self, depth, capsys):
        # these limits find no cycle, so only a check ahead of the search
        # can name the flag the user got wrong
        code, out, err = run(capsys, "measure", "collatz", "--depth", depth,
                             "--cycle-bound", "5", "--max-steps", "1")
        assert code == 1 and out == ""
        assert err == f"error: --depth must be >= 1, got {depth}\n"


class TestChainsAndTree:
    def test_chains_json(self, capsys):
        _, out, _ = run(capsys, "chains", "7")
        doc = json.loads(out)
        assert doc["links"] == ["7", "13"]

    def test_chains_dot(self, capsys):
        _, out, _ = run(capsys, "chains", "7", "--format", "dot")
        assert out.startswith("digraph chain {")

    def test_tree_json(self, capsys):
        _, out, _ = run(capsys, "tree", "collatz", "--root", "8", "--depth", "1")
        assert [n["value"] for n in json.loads(out)["nodes"]] == ["8", "5", "16"]

    def test_tree_dot(self, capsys):
        _, out, _ = run(capsys, "tree", "pxr:p=5,r=1", "--root", "4", "--depth", "2",
                        "--format", "dot")
        assert out.startswith("digraph preimage_tree {")

    @pytest.mark.parametrize("tree_map", ["collatz", "d=2;m0=3,r0=0;m1=1,r1=1"])
    def test_huge_tree_depth_exits_one_at_once(self, capsys, tree_map):
        # the second map gives 1 the single preimage 1: one repeat per level
        t0 = time.perf_counter()
        code, out, err = run(capsys, "tree", tree_map, "--root", "1", "--depth", "2^40")
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert err.startswith("error: tree level ") and "above the cap of 131072" in err


class TestCriterion:
    def test_positive(self, capsys):
        _, out, _ = run(capsys, "criterion", "3", "1")
        doc = json.loads(out)
        assert doc["chain_structure"] is True
        assert doc["two_preimage_class"] == "2"

    def test_negative_r_positional(self, capsys):
        _, out, _ = run(capsys, "criterion", "5", "-3")
        doc = json.loads(out)
        assert doc["chain_structure"] is True and doc["r"] == "-3"

    def test_verify_block(self, capsys):
        _, out, _ = run(capsys, "criterion", "5", "3", "--verify")
        doc = json.loads(out)
        assert doc["witness_search"]["l"] == "1"
        # the reported bounds are the ones the search ran with
        bounds = inspect.signature(search_family_witness).parameters
        assert {k: v for k, v in doc["witness_search"].items() if k != "l"} == {
            k: bounds[k].default for k in ("alpha_max", "beta_max", "k_max")}
        assert doc["identity"]["applicable"] is True
        assert doc["connection"]["samples"] == doc["connection"]["satisfied"] == 500

    def test_verify_no_structure(self, capsys):
        _, out, _ = run(capsys, "criterion", "5", "1", "--verify")
        doc = json.loads(out)
        assert doc["chain_structure"] is False
        assert doc["witness_search"]["l"] is None
        assert doc["identity"]["applicable"] is False
        assert doc["connection"] is None

    def test_invalid_pair(self, capsys):
        code, _, _ = run(capsys, "criterion", "4", "1")
        assert code == 1

    @pytest.mark.parametrize("p", [10**4 + 1, 10**4299 + 1])
    def test_verify_refuses_p_above_the_cap(self, capsys, p):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "criterion", str(p), "3", "--verify")
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert "p above 10000 is refused" in err
        code, out, _ = run(capsys, "criterion", str(p), "3")  # the criterion alone is cheap
        assert code == 0 and json.loads(out)["chain_structure"] is False

    def test_verify_accepts_p_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(chains_module, "_MAX_WITNESS_P", 7)
        code, out, _ = run(capsys, "criterion", "7", "5", "--verify")
        assert code == 0
        assert json.loads(out)["witness_search"] == {
            "l": "1", "alpha_max": 4, "beta_max": 4, "k_max": 50}
        code, _, err = run(capsys, "criterion", "9", "7", "--verify")
        assert code == 1 and "p above 7 is refused" in err


class TestScan:
    def test_rows(self, capsys):
        _, out, _ = run(capsys, "scan", "collatz", "--start", "1", "--end", "4")
        assert out.splitlines() == [
            "x,status,steps_to_cycle,max_excursion,cycle_min",
            "1,EnteredCycle,0,2,1",
            "2,EnteredCycle,0,2,1",
            "3,EnteredCycle,4,8,1",
            "4,EnteredCycle,1,4,1",
        ]

    def test_limit_rows_empty_fields(self, capsys):
        _, out, _ = run(capsys, "scan", "pxr:p=5,r=1", "--start", "7", "--end", "7",
                        "--max-value", "1e6")
        row = out.splitlines()[1].split(",")
        assert row[1] == "HitValueLimit"
        assert row[2] == "" and row[4] == ""


class TestDeterminismAndThreads:
    def test_repeat_runs_identical(self, capsys):
        a = run(capsys, "measure", "collatz", "--depth", "8", "--trials", "50")
        b = run(capsys, "measure", "collatz", "--depth", "8", "--trials", "50")
        assert a == b

    def test_scan_threads_agree(self, capsys):
        _, one, _ = run(capsys, "scan", "collatz", "--start", "1", "--end", "60",
                        "--threads", "1")
        _, two, _ = run(capsys, "scan", "collatz", "--start", "1", "--end", "60",
                        "--threads", "2")
        assert one == two

    def test_cycles_threads_agree(self, capsys):
        _, one, _ = run(capsys, "cycles", "pxr:p=5,r=1", "--bound", "300",
                        "--threads", "1")
        _, two, _ = run(capsys, "cycles", "pxr:p=5,r=1", "--bound", "300",
                        "--threads", "3")
        assert one == two


def test_import_leaves_the_pool_machinery_out():
    # _fan_out imports concurrent.futures only when it starts a pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, syrdyn.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


# -- JSON writer ---------------------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**200, max_value=2**260),
    st.integers(min_value=-(2**260), max_value=-(2**200)),
    st.floats(),  # nan, +-inf and -0.0 included
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "é€☃", "\U0001d11e"]),
)
_json_keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
_json_trees = st.recursive(
    _json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(_json_keys, kids, max_size=5),
    ),
    max_leaves=40,
)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
@settings(max_examples=300, deadline=None)
@given(tree=_json_trees)
@example(tree=[[], {}, ((),), {"a": {"b": []}}, [[[]]]])
@example(tree={1: 2**300, True: -0.0, None: float("nan"), 2.5: [float("inf"), -float("inf")]})
@example(tree=("é", '"', "\x00", (1, "x")))
def test_json_text_matches_json_dumps_indent_2(c_encoder, tree):
    with pytest.MonkeyPatch.context() as mp:
        if not c_encoder:
            mp.setattr(cli, "c_make_encoder", None)
        assert cli._json_text(tree) == json.dumps(tree, indent=2) + "\n"


def test_json_text_sends_flat_containers_to_the_c_encoder(monkeypatch):
    calls = []
    encoder_for = cli._flat_encoder

    def counting(inner):
        calls.append(inner)
        return encoder_for(inner)

    monkeypatch.setattr(cli, "_flat_encoder", counting)
    doc = {"nodes": [{"value": "1", "level": 0}, {"value": "2", "level": 1}], "depth": 1}
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"
    assert calls == [" " * 6, " " * 6]  # the items of each node, not the nodes list


def test_json_text_refuses_what_json_refuses():
    for bad in ({"a": {1, 2}}, [object()], {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(bad)


# -- one parser per process ----------------------------------------------------


def _fresh_run(argv, cwd):
    """Exit code, stdout and stderr bytes of `python -m syrdyn argv` in a new process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "syrdyn", *argv], env=env, cwd=cwd,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_carries_no_state_between_calls(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    tree_args = ["tree", "collatz", "--root", "1", "--depth", "10"]
    sequence = [
        ["chains", "12", "--format", "svg"],
        ["chains", "1000003", "--links", "2", "--format", "dot"],
        ["chains", "1000003", "--links", "2"],
        [*tree_args, "--out", "tree.json"],
        tree_args,
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    for argv in sequence:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out.encode(), captured.err.encode()) == _fresh_run(argv, fresh), argv
    assert (here / "tree.json").read_bytes() == (fresh / "tree.json").read_bytes()
    assert main(tree_args) == 0
    assert capsys.readouterr().out.encode() == (here / "tree.json").read_bytes()


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import contextlib, io, syrdyn.cli as cli\n"
             "built = [cli._build_parser.cache_info().currsize]\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    cli.main(['criterion', '5', '3'])\n"
             "    cli.main(['criterion', '7', '5'])\n"
             "built.append(cli._build_parser.cache_info().currsize)\n"
             "print(built)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[0, 1]\n"
