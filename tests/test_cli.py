import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import syrdyn.chains as chains_module
import syrdyn.cli as cli
from syrdyn.chains import search_family_witness
from syrdyn.cli import _parse_bound, main
from syrdyn.maps import MapDescriptor
from syrdyn.numeric import max_str_digits
from test_numeric import rendered


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


@pytest.mark.parametrize("bound", [
    "1" * 4301,
    "0" * 4300 + "7",
    "1" * 4400 + "e2",
    "1" * 4400 + "^2",
    "2^" + "1" * 4400,
], ids=["plain", "leading-zeros", "mantissa", "base", "exponent"])
def test_integer_text_too_long_is_refused_briefly(bound, capsys):
    # refused by its length before int() reads it; the message quotes a prefix
    code, out, err = run(capsys, "traj", "collatz", bound)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("syrdyn traj: error: ")
    assert f"more than {max_str_digits()} digits" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("argv", [
    ["measure", "collatz", "--depth", "3", "--trials", "1" * 5000],
    ["measure", "collatz", "--depth", "3", "--max-n", "1" * 5000],
    ["chains", "7", "--links", "x" * 5000],
    ["scan", "collatz", "--start", "1", "--end", "9", "--threads", "1" * 5000],
], ids=["trials", "max-n", "links", "threads"])
def test_positive_int_flag_quotes_a_prefix(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith(f"syrdyn {argv[0]}: error: argument ")
    assert err.splitlines()[-1].endswith("... (5000 characters)")
    assert len(err.splitlines()[-1].encode()) < 200  # the usage line comes before it


@pytest.mark.parametrize("argv", [
    ["measure", "collatz", "--depth", "3", "--seed", "1" * 5000],
    ["criterion", "1" * 5000, "1"],
    ["criterion", "5", "x" * 5000],
], ids=["seed", "criterion-p", "criterion-r"])
def test_int_flag_quotes_a_prefix(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].endswith("... (5000 characters)")
    assert "invalid int value: " in err
    assert len(err.splitlines()[-1].encode()) < 200  # the usage line comes before it


def test_short_int_flag_refusals_quote_the_whole_text(capsys):
    assert run(capsys, "criterion", "5", "x")[2].endswith(
        "error: argument r: invalid int value: 'x'\n")
    assert run(capsys, "chains", "7", "--links", "0")[2].endswith(
        "error: argument --links: must be >= 1: '0'\n")
    assert run(capsys, "chains", "7", "--links", "y")[2].endswith(
        "error: argument --links: not an integer: 'y'\n")


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

    for name in ("iterate", "partition", "find_cycles"):
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

    def test_internal_check_failure_exits_three(self, capsys, monkeypatch):
        # only the connection check steps the map: tail 4 halves to 1, sent to 5 = 0 (mod 5)
        monkeypatch.setattr(MapDescriptor, "apply", lambda self, x: 5 * x)
        code, out, err = run(capsys, "criterion", "5", "3", "--verify")
        assert code == 3
        assert out == ""
        assert err == ("internal check failed: "
                       "tail 4: first odd-branch landing 5 is 0 (mod 5), expected 4\n")


def reference_traj_payload(desc, report):
    """The traj document as a dict, the way it was built before the steps were streamed."""
    return {
        "map": desc.to_text(),
        "start": str(report.start),
        "status": report.status.value,
        "steps": [str(v) for v in report.steps],
        "applications": len(report.steps) - 1 + (1 if report.cycle else 0),
        "max_excursion": str(report.max_excursion),
        "entry_index": report.entry_index,
        "cycle": [str(v) for v in report.cycle.members] if report.cycle else None,
    }


class TestTraj:
    @pytest.mark.parametrize("text, n, max_steps, max_value, status", [
        ("collatz", 27, 10**5, 10**40, "EnteredCycle"),
        ("pxr:p=5,r=1", 7, 50, 10**40, "HitStepLimit"),
        ("pxr:p=5,r=1", 7, 10**5, 10**6, "HitValueLimit"),
    ])
    def test_bytes_are_json_dumps_of_the_reference(self, text, n, max_steps, max_value, status,
                                                   capsys):
        from syrdyn.maps import parse_descriptor
        from syrdyn.trajectory import Limits, iterate

        desc = parse_descriptor(text)
        report = iterate(desc, n, Limits(max_steps, max_value))
        assert report.status.value == status
        code, out, _ = run(capsys, "traj", text, str(n), "--max-steps", str(max_steps),
                           "--max-value", str(max_value))
        assert code == (0 if status == "EnteredCycle" else 2)
        assert out == json.dumps(reference_traj_payload(desc, report), indent=2) + "\n"

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

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_negative_seed_refused(self, seed, capsys):
        # random.Random seeds with abs(seed), so -5 would draw the subsets of 5
        code, out, err = run(capsys, "measure", "collatz", "--depth", "3", "--seed", seed)
        assert code == 1 and out == ""
        assert err == f"error: seed must be a non-negative int, got {seed}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-3"], "seed must be a non-negative int, got -3"),
        (["--max-n", "40"], "max_n 40 exceeds forest depth 36; deeper preimages are unknowable"),
        (["--trials", "100000000"], "trials * max_n = 500000000 comparisons, above the cap of "
                                    "1048576; use fewer trials or a smaller max_n"),
    ])
    def test_sampler_arguments_refused_before_the_forest(self, flags, message, capsys, monkeypatch):
        # depth 36 is the largest forest under the node cap; none of it may be built
        def no_forest(*args, **kwargs):
            raise AssertionError("a forest was built")

        monkeypatch.setattr(cli, "build_forest", no_forest)
        code, out, err = run(capsys, "measure", "collatz", "--depth", "36", "--cycle-bound", "1",
                             *flags)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


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
        for argv in (["4", "1"], ["5", "2"], ["9", "3"], ["9", "3", "--verify"]):
            code, out, err = run(capsys, "criterion", *argv)
            assert code == 1 and out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv

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
    # the CLI runs every range in one process and never imports a pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, syrdyn.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


# -- engines loaded on first use -----------------------------------------------


def _fresh_probe(code):
    """Stdout of `python -c code` in a new interpreter that imports syrdyn from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _engines_after(*argvs):
    """The lazy engines in sys.modules after import syrdyn.cli and main(argv) for each argv."""
    return _fresh_probe(
        "import contextlib, io, sys, syrdyn.cli as cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "print(sorted(m for m in ('syrdyn.measure', 'syrdyn.chains') if m in sys.modules))")


@pytest.mark.parametrize("argvs, loaded", [
    ((), []),
    ((["traj", "collatz", "27"], ["partition", "collatz", "--bound", "10"],
      ["cycles", "collatz", "--bound", "10"], ["scan", "collatz", "--start", "1", "--end", "10"]),
     []),
    ((["measure", "collatz", "--depth", "4", "--cycle-bound", "1", "--trials", "5"],),
     ["syrdyn.measure"]),
    ((["chains", "7"],), ["syrdyn.chains"]),
    ((["tree", "collatz", "--root", "1", "--depth", "4"],), ["syrdyn.chains"]),
    ((["criterion", "5", "3"],), ["syrdyn.chains"]),
    (tuple([name, "--help"] for name in ("traj", "cycles", "partition", "measure", "chains",
                                         "tree", "criterion", "scan")), []),
])
def test_each_subcommand_imports_only_its_engine(argvs, loaded):
    assert _engines_after(*argvs) == f"{loaded}\n"


def test_a_refused_measure_imports_no_engine():
    probe = ("import contextlib, io, sys, syrdyn.cli as cli\n"
             "with contextlib.redirect_stderr(io.StringIO()):\n"
             "    code = cli.main(['measure', 'collatz', '--depth', '3', '--max-steps', '1e12'])\n"
             "print(code, 'syrdyn.measure' in sys.modules)")
    assert _fresh_probe(probe) == "1 False\n"


@pytest.mark.parametrize("name, argv", [
    ("chain_of", ["chains", "7"]),
    ("build_preimage_tree", ["tree", "collatz", "--root", "1", "--depth", "4"]),
    ("check_power_bound", ["measure", "collatz", "--depth", "4", "--cycle-bound", "1"]),
])
def test_a_lazy_name_patched_before_its_engine_loads_is_called(name, argv):
    # set straight on the module, so the patch goes in while the engine is still unread
    probe = ("import contextlib, io, sys, syrdyn.cli as cli\n"
             "from syrdyn.errors import InvalidParameters\n"
             "def patched(*args, **kwargs):\n"
             "    raise InvalidParameters('patched')\n"
             f"cli.{name} = patched\n"
             "assert not {'syrdyn.measure', 'syrdyn.chains'} & set(sys.modules)\n"
             "err = io.StringIO()\n"
             "with contextlib.redirect_stderr(err):\n"
             f"    code = cli.main({argv!r})\n"
             f"print(code, repr(err.getvalue()), cli.{name} is patched)")
    assert _fresh_probe(probe) == "1 'error: patched\\n' True\n"


def test_a_monkeypatched_lazy_name_is_called(capsys, monkeypatch):
    calls = []

    def patched(n, links):
        calls.append((n, links))
        return chains_module.chain_of(n, links)

    monkeypatch.setattr(cli, "chain_of", patched)
    code, out, _ = run(capsys, "chains", "7", "--links", "2")
    assert code == 0 and calls == [(7, 2)]
    assert out == rendered(chains_module.chain_to_json, chains_module.chain_of(7, 2))


def test_lazy_names_are_the_engines_and_unknown_names_raise():
    assert cli.chain_of is chains_module.chain_of
    assert cli.WITNESS_K_MAX == chains_module.WITNESS_K_MAX
    from syrdyn.cli import export_json
    from syrdyn.measure import export_json as defined
    assert export_json is defined
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    assert not hasattr(cli, "measure")
    # each engine's __all__ is the one declaration: per engine, the names read through
    # the CLI that are not the engine's own, those another engine declares too, and
    # those of the package's public subset that the engine does not declare
    probe = ("import importlib, syrdyn, syrdyn.cli as cli\n"
             "seen = set()\n"
             "for engine in cli._ENGINES:\n"
             "    module = importlib.import_module(f'syrdyn.{engine}')\n"
             "    names = set(module.__all__)\n"
             "    foreign = [n for n in module.__all__ if getattr(cli, n) is not getattr(module, n)]\n"
             "    print(engine, foreign, sorted(names & seen),\n"
             "          sorted(set(syrdyn._LAZY_NAMES[engine]) - names))\n"
             "    seen |= names\n"
             "try:\n"
             "    cli.no_such_name\n"
             "except AttributeError as exc:\n"
             "    print(exc)\n")
    assert _fresh_probe(probe) == (
        "measure [] [] []\nchains [] [] []\n"
        "module 'syrdyn.cli' has no attribute 'no_such_name'\n")


# -- one output path -----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["tree", "collatz", "--root", "3", "--depth", "20000"],  # a value too long to print
    ["measure", "collatz", "--depth", "40"],                 # above the node cap
    ["measure", "collatz", "--depth", "8", "--seed", "-3"],  # a refused sampler argument
])
def test_a_refused_command_opens_no_out_file(argv, capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1 and out == "" and err.startswith("error: ")
    assert not path.exists()


class _Discard:
    """A stream that keeps only the length of what it is given."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)


@pytest.mark.parametrize("engine, render", [("chains", "tree_to_json"), ("measure", "export_json"),
                                            ("trajectory", "trajectory_to_json")])
def test_rendering_does_not_hold_the_document(engine, render):
    # the collatz depth-28 documents: 19,385 tree nodes (2.85 MB), 11,301 forest nodes (4.29 MB);
    # the pxr:p=5,r=1 orbit of 7 below 10^500: 10,655 steps (2.70 MB)
    from syrdyn.maps import collatz, pxr
    from syrdyn.measure import assign_measure, build_forest
    from syrdyn.trajectory import CycleInfo, Limits, iterate

    if engine == "chains":
        args = (chains_module.build_preimage_tree(collatz(), 1, 28),)
    elif engine == "measure":
        args = (assign_measure(build_forest(collatz(), [CycleInfo((1, 2))], 28)), None)
    else:
        args = (pxr(5, 1), iterate(pxr(5, 1), 7, Limits(max_value=10**500)))
    stream = _Discard()
    tracemalloc.start()
    try:
        getattr(cli, render)(*args, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.length > 2_000_000
    assert peak < stream.length


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
