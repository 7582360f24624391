import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from qbd import backdoor, cli, reductions
from qbd.formula import AffineEquation, clause
from qbd.oracle import extract_strategy
from qbd.qdimacs import parse_qdimacs, write_qdimacs
from helpers import RUNNING_EXAMPLE_TEXT

FALSE_TEXT = "c class 2cnf\np cnf 1 1\na 1 0\n1 0\n"

AFF_TEXT = """c class aff
p cnf 5 3
e 1 0
a 2 0
e 3 4 5 0
x 1 3 0
x 2 5 0
c backdoor-begin
4 5 0
"""

RELATIONS_TEXT = "impl 2 : 00, 01, 11\n"

GRAPH_TEXT = "parts a b | c\na c\n"


@pytest.fixture
def example(tmp_path):
    p = tmp_path / "example.qdimacs"
    p.write_text(RUNNING_EXAMPLE_TEXT)
    return str(p)


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


class TestSolve:
    def test_true_instance(self, example, capsys):
        assert cli.run(["solve", example]) == 10
        out = lines_of(capsys)
        assert out[0] == "s TRUE"
        assert "c algorithm 2cnf" in out
        assert "c n 5" in out
        assert "c k 3" in out

    def test_false_instance(self, tmp_path, capsys):
        p = tmp_path / "f.qdimacs"
        p.write_text(FALSE_TEXT)
        assert cli.run(["solve", str(p)]) == 20
        assert lines_of(capsys)[0] == "s FALSE"

    def test_forced_brute(self, example, capsys):
        assert cli.run(["solve", example, "--algorithm", "brute"]) == 10
        assert "c algorithm brute" in lines_of(capsys)

    def test_forced_engine_class_mismatch(self, example, capsys):
        assert cli.run(["solve", example, "--algorithm", "aff"]) == 1
        assert "declares 2cnf" in capsys.readouterr().err

    @pytest.mark.parametrize("text, tag", [(RUNNING_EXAMPLE_TEXT, "2cnf"), (RUNNING_EXAMPLE_TEXT, "aff"),
                                           (AFF_TEXT, "horn")], ids=["example-2cnf", "example-aff", "parity-horn"])
    def test_class_flag_declares_as_a_class_line_does(self, text, tag, tmp_path, capsys):
        """--class TAG on solve is a `c class TAG` line: the same lines and
        exit code, and one membership scan, dispatch's, per run."""
        flagged, declared = tmp_path / "flagged.qdimacs", tmp_path / "declared.qdimacs"
        flagged.write_text(text)
        declared.write_text(text.replace(text.splitlines()[0], f"c class {tag}", 1))
        runs = []
        for argv in (["solve", str(flagged), "--class", tag], ["solve", str(declared)]):
            with mock.patch.object(backdoor, "_outside", side_effect=backdoor._outside) as scans:
                code = cli.run(argv)
            captured = capsys.readouterr()
            out = [line for line in captured.out.splitlines() if not line.startswith("c wall-time")]
            runs.append((code, out, captured.err, scans.call_count))
        assert runs[0] == runs[1]
        assert runs[0][0] in (10, 20) and runs[0][3] == 1

    def test_unknown_class_flag_is_one_error_line(self, example, capsys):
        assert cli.run(["solve", example, "--class", "3cnf"]) == 1
        assert capsys.readouterr().err == "qbd: unknown base class tag '3cnf'\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(RUNNING_EXAMPLE_TEXT))
        assert cli.run(["solve", "-"]) == 10
        assert lines_of(capsys)[0] == "s TRUE"

    def test_emit_strategy(self, example, tmp_path, capsys):
        target = tmp_path / "tree.txt"
        assert cli.run(["solve", example, "--emit-strategy", str(target)]) == 10
        expected = extract_strategy(parse_qdimacs(RUNNING_EXAMPLE_TEXT))
        assert target.read_text() == expected.to_text() + "\n"

    def test_emit_strategy_respects_the_leaf_cap(self, tmp_path, capsys):
        body = ["c class 2cnf", "p cnf 17 0", "a " + " ".join(map(str, range(1, 18))) + " 0"]
        p = tmp_path / "wide.qdimacs"
        p.write_text("\n".join(body) + "\n")
        target = tmp_path / "tree.txt"
        assert cli.run(["solve", str(p), "--emit-strategy", str(target)]) == 10
        assert not target.exists()
        assert "strategy not written" in capsys.readouterr().err

    def test_unwritable_strategy_path_keeps_the_verdict(self, example, capsys):
        target = "/nonexistent-dir/strategy.txt"
        assert cli.run(["solve", example, "--emit-strategy", target]) == 10
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "s TRUE"
        assert captured.err.startswith("qbd: strategy not written: ")
        assert target in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_deep_prefix(self, tmp_path, capsys):
        # 5,000 existentials, one of them per search node, and a cover
        # on the three innermost
        n = 5000
        p = tmp_path / "deep.qdimacs"
        p.write_text(
            f"p cnf {n} 2\ne {' '.join(map(str, range(1, n + 1)))} 0\n"
            f"-{n - 1} {n} 0\nc backdoor-begin\n{n - 2} -{n - 1} {n} 0\n"
        )
        started = time.perf_counter()
        assert cli.run(["solve", str(p)]) == 10
        assert time.perf_counter() - started < 10
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "s TRUE"
        assert captured.err == ""

    def test_deep_parity_cover(self, tmp_path, capsys):
        # 1,300 existentials, one parity row on the two innermost, and one
        # covered clause over the first 1,200: the aff walk is 1,200 deep
        n = 1300
        p = tmp_path / "deep-aff.qdimacs"
        p.write_text(
            f"p cnf {n} 2\ne {' '.join(map(str, range(1, n + 1)))} 0\n"
            f"x {n - 1} {n} 0\nc backdoor-begin\n{' '.join(map(str, range(1, 1201)))} 0\n"
        )
        started = time.perf_counter()
        assert cli.run(["solve", str(p)]) == 10
        assert time.perf_counter() - started < 10
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "s TRUE"
        assert "c algorithm aff" in lines
        assert "c k 1200" in lines
        assert captured.err == ""

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_emit_strategy_obeys_the_brute_cap(self, source, tmp_path, capsys, monkeypatch):
        p = tmp_path / "six.qdimacs"
        p.write_text("c class 2cnf\np cnf 6 3\ne 1 2 3 4 5 6 0\n1 2 0\n-3 4 0\n"
                     "c backdoor-begin\n5 -6 1 0\n")
        target = tmp_path / "tree.txt"
        argv = ["solve", str(p), "--emit-strategy", str(target)]
        if source == "flag":
            argv += ["--brute-cap", "4"]
        else:
            monkeypatch.setenv("QBD_BRUTE_CAP", "4")
        assert cli.run(argv) == 10
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "s TRUE"
        assert not target.exists()
        assert captured.err == "qbd: strategy not written: 6 variables exceed the brute-force cap 4\n"

    def test_missing_file(self, tmp_path, capsys):
        assert cli.run(["solve", str(tmp_path / "nope")]) == 1
        assert capsys.readouterr().err.startswith("qbd:")

    def test_non_utf8_input_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "latin1.qdimacs"
        p.write_bytes(b"c caf\xe9\np cnf 1 1\ne 1 0\n1 0\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
        for source in (str(p), "-"):
            assert cli.run(["solve", source]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"qbd: {source}: not UTF-8 text")
            assert len(captured.err.splitlines()) == 1

    def test_each_warning_is_one_line(self, tmp_path, capsys):
        # the header claims 5 matrix lines, and variable 2 is unquantified
        p = tmp_path / "sloppy.qdimacs"
        p.write_text("p cnf 2 5\ne 1 0\n1 2 0\n")
        assert cli.run(["solve", str(p)]) == 10
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "s TRUE"
        err = captured.err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("qbd: warning: ") for line in err), err

    def test_over_cap_note_is_one_warning_line(self, tmp_path, capsys):
        p = tmp_path / "wide.qdimacs"
        p.write_text("p cnf 3 2\ne 1 2 3 0\n1 -2 3 0\n-1 2 -3 0\n")
        assert cli.run(["solve", str(p), "--brute-cap", "2"]) == 10
        assert capsys.readouterr().err.splitlines() == [
            "qbd: warning: no cover smaller than the 3 variables; running 2cnf with k=3 anyway"
        ]

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_brute_cap_is_one_error_line(self, source, tmp_path, capsys, monkeypatch):
        p = tmp_path / "empty.qdimacs"
        p.write_text("p cnf 0 0\n")
        argv = ["solve", str(p), "--emit-strategy", "-"]
        if source == "flag":
            argv += ["--brute-cap", "-1"]
            message = "the brute-force cap must not be negative, got -1"
        else:
            monkeypatch.setenv("QBD_BRUTE_CAP", "-1")
            message = "QBD_BRUTE_CAP must not be negative, got -1"
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qbd: {message}\n"

    def test_brute_cap_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "wide.qdimacs"
        p.write_text("p cnf 3 2\ne 1 2 3 0\n1 -2 3 0\n-1 2 -3 0\n")
        monkeypatch.setenv("QBD_BRUTE_CAP", "2")
        assert cli.run(["solve", str(p), "--brute-cap", "24"]) == 10
        assert "c algorithm brute" in lines_of(capsys)


class TestDetect:
    def test_declared_class(self, example, capsys):
        assert cli.run(["detect", example]) == 0
        assert lines_of(capsys) == ["k=3: x3 x4 x5"]

    def test_flag_overrides(self, example, capsys):
        assert cli.run(["detect", example, "--class", "aff"]) == 0
        assert lines_of(capsys) == ["k=5: x1 x2 x3 x4 x5"]

    def test_empty_cover(self, tmp_path, capsys):
        p = tmp_path / "easy.qdimacs"
        p.write_text("c class 2cnf\np cnf 2 1\ne 1 2 0\n1 -2 0\n")
        assert cli.run(["detect", str(p)]) == 0
        assert lines_of(capsys) == ["k=0:"]

    def test_no_class_anywhere(self, tmp_path, capsys):
        p = tmp_path / "bare.qdimacs"
        p.write_text("p cnf 1 1\ne 1 0\n1 0\n")
        assert cli.run(["detect", str(p)]) == 1
        assert "declares no class" in capsys.readouterr().err


class TestKernelize:
    def test_reduces_the_parity_part(self, tmp_path, capsys):
        p = tmp_path / "aff.qdimacs"
        p.write_text(AFF_TEXT)
        assert cli.run(["kernelize", str(p)]) == 0
        reduced = parse_qdimacs(capsys.readouterr().out)
        assert reduced.prefix.to_string() == "a2 e4 e5"
        assert reduced.matrix.tractable == (AffineEquation(frozenset({2, 5}), 1),)
        assert reduced.matrix.backdoor == (clause(4, 5),)
        assert reduced.base_class.tag == "aff"

    def test_out_file(self, tmp_path):
        p = tmp_path / "aff.qdimacs"
        p.write_text(AFF_TEXT)
        out = tmp_path / "kernel.qdimacs"
        assert cli.run(["kernelize", str(p), "--out", str(out)]) == 0
        assert parse_qdimacs(out.read_text()).prefix.to_string() == "a2 e4 e5"

    def test_false_parity_part(self, tmp_path, capsys):
        p = tmp_path / "bad.qdimacs"
        p.write_text("c class aff\np cnf 1 2\na 1 0\nx 1 0\nx -1 0\n")
        assert cli.run(["kernelize", str(p)]) == 20
        assert "no kernel" in capsys.readouterr().err


class TestClassify:
    def test_fpt_language(self, tmp_path, capsys):
        p = tmp_path / "rels.txt"
        p.write_text(RELATIONS_TEXT)
        assert cli.run(["classify", str(p)]) == 0
        assert lines_of(capsys) == ["fpt because=maj"]

    def test_open_case_prints_d(self, tmp_path, capsys):
        p = tmp_path / "rels.txt"
        p.write_text("or3 3 : 001, 010, 011, 100, 101, 110, 111\nimpl 2 : 00, 01, 11\n")
        assert cli.run(["classify", str(p)]) == 0
        assert lines_of(capsys) == ["open-dihsb+ d=3 because=t4"]

    def test_hard_language_has_no_because(self, tmp_path, capsys):
        p = tmp_path / "rels.txt"
        p.write_text("oneinthree 3 : 100, 010, 001\n")
        assert cli.run(["classify", str(p)]) == 0
        assert lines_of(capsys) == ["para-pspace-hard"]


class TestGenerate:
    def test_random_is_deterministic(self, tmp_path, capsys):
        args = ["generate", "random", "--n", "6", "--k", "2", "--seed", "5"]
        assert cli.run(args) == 0
        first = capsys.readouterr().out
        assert cli.run(args) == 0
        assert capsys.readouterr().out == first
        f = parse_qdimacs(first)
        assert len(f.prefix) == 6
        assert f.base_class.tag == "2cnf"

    def test_non_finite_density_is_one_error_line(self, capsys):
        args = ["generate", "random", "--n", "3", "--k", "1", "--seed", "1", "--tractable-density", "nan"]
        assert cli.run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qbd: densities must give finite atom counts, got nan uncovered and 1.0 covered\n"

    def test_too_many_atoms_is_one_error_line(self, monkeypatch, capsys):
        def no_atoms(*args):
            raise AssertionError("an atom was drawn")

        monkeypatch.setattr(reductions, "_gen_atom", no_atoms)
        args = ["generate", "random", "--n", "3", "--k", "1", "--seed", "1", "--tractable-density", "1e9"]
        assert cli.run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qbd: densities give 3000000000 uncovered and 1 covered atoms, more than 1000000\n"

    def test_too_many_variables_is_one_error_line(self, capsys):
        args = ["generate", "random", "--n", "3000000000", "--k", "0", "--seed", "1",
                "--tractable-density", "0", "--backdoor-density", "0"]
        assert cli.run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qbd: n=3000000000 variables is more than 1000000\n"

    def test_mis_horn(self, tmp_path, capsys):
        g = tmp_path / "graph.txt"
        g.write_text(GRAPH_TEXT)
        out = tmp_path / "mis.qdimacs"
        assert cli.run(["generate", "mis-horn", "--graph", str(g), "--out", str(out)]) == 0
        f = parse_qdimacs(out.read_text())
        assert f.base_class.tag == "horn"
        assert f.matrix.backdoor == (clause(4, 5),)

    def test_mis_ihsb(self, tmp_path, capsys):
        g = tmp_path / "graph.txt"
        g.write_text(GRAPH_TEXT)
        assert cli.run(["generate", "mis-ihsb", "--graph", str(g)]) == 0
        f = parse_qdimacs(capsys.readouterr().out)
        assert f.base_class.tag == "ihsb-"
        assert len(f.matrix.backdoor_variables()) == 4


class TestTransform:
    def test_dualize_twice_is_identity(self, example, tmp_path, capsys):
        once = tmp_path / "once.qdimacs"
        assert cli.run(["transform", example, "--dualize", "--out", str(once)]) == 0
        assert cli.run(["transform", str(once), "--dualize"]) == 0
        twice = capsys.readouterr().out
        assert twice == write_qdimacs(parse_qdimacs(RUNNING_EXAMPLE_TEXT))

    def test_to_3horn(self, tmp_path, capsys):
        p = tmp_path / "horn.qdimacs"
        p.write_text("c class horn\np cnf 4 1\ne 1 2 3 4 0\n1 -2 -3 -4 0\n")
        assert cli.run(["transform", str(p), "--to-3horn"]) == 0
        f = parse_qdimacs(capsys.readouterr().out)
        assert f.base_class.tag == "3horn"
        assert all(len(c) <= 3 for c in f.matrix.tractable)

    def test_to_3horn_names_a_non_horn_atom(self, tmp_path, capsys):
        p = tmp_path / "two.qdimacs"
        p.write_text("p cnf 2 1\ne 1 2 0\n1 2 0\n")
        assert cli.run(["transform", str(p), "--to-3horn"]) == 1
        assert capsys.readouterr().err == "qbd: uncovered atom (1 2) is not Horn\n"

    def test_to_3horn_detects_for_the_class_flag(self, tmp_path, capsys):
        # transform detects the cover, so a non-Horn clause the file keeps
        # in its tractable part moves behind the marker
        p = tmp_path / "declared.qdimacs"
        p.write_text("c class horn\np cnf 3 1\ne 1 2 3 0\n1 2 3 0\n")
        assert cli.run(["transform", str(p), "--to-3horn", "--class", "horn"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[out.index("c backdoor-begin") + 1:] == ["1 2 3 0"]
        assert cli.run(["transform", str(p), "--to-3horn"]) == 1
        assert capsys.readouterr().err == "qbd: uncovered atom (1 2 3) is not Horn\n"

    def test_modes_are_exclusive(self, example):
        with pytest.raises(SystemExit) as ei:
            cli.run(["transform", example, "--dualize", "--to-3horn"])
        assert ei.value.code == 2


class TestBench:
    def test_run_and_verify(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        assert cli.run(["bench", "--suite", "2cnf:5:6:2", "--out", str(log)]) == 0
        assert f"bench: 5 instances, 10 records -> {log}" in capsys.readouterr().out
        rows = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(rows) == 10
        keys = ["algorithm", "branch_nodes", "instance", "k", "leaves", "n", "seed", "value", "wall_time"]
        assert all(list(r) == keys for r in rows)  # the nine BenchRecord fields, sorted
        assert {r["algorithm"] for r in rows} >= {"brute"}
        assert all(r["n"] == 6 for r in rows)
        assert cli.run(["bench", "--verify", str(log)]) == 0
        out = capsys.readouterr().out
        assert "instances 5  records 10" in out
        assert "agree 5  disagree 0" in out
        assert "leaf-budget over 0" in out

    def test_brute_cap_env_bounds_the_cross_check(self, tmp_path, capsys, monkeypatch):
        # the brute cross-check and dispatch read the same cap: at n=14 over
        # a cap of 10 neither runs brute force
        log = tmp_path / "log.jsonl"
        monkeypatch.setenv("QBD_BRUTE_CAP", "10")
        assert cli.run(["bench", "--suite", "2cnf:3:14:5", "--out", str(log)]) == 0
        rows = [json.loads(l) for l in log.read_text().splitlines()]
        assert [r["algorithm"] for r in rows] == ["2cnf"] * 3
        monkeypatch.setenv("QBD_BRUTE_CAP", "14")
        assert cli.run(["bench", "--suite", "2cnf:3:14:5", "--out", str(log)]) == 0
        rows = [json.loads(l) for l in log.read_text().splitlines()]
        assert [r["algorithm"] for r in rows[3:]] == ["2cnf", "brute"] * 3

    def test_append_safe(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        cli.run(["bench", "--suite", "aff:3:5:2", "--out", str(log)])
        cli.run(["bench", "--suite", "posneg:3:5:2", "--out", str(log)])
        assert len(log.read_text().splitlines()) == 12

    def test_verify_flags_bad_records(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        base = {
            "instance": "z", "seed": 1, "algorithm": "2cnf", "value": True,
            "k": 1, "n": 3, "branch_nodes": 0, "leaves": 1, "wall_time": 0.0,
        }
        liar = dict(base, algorithm="brute", value=False, leaves=5)
        log.write_text(json.dumps(base) + "\n" + json.dumps(liar) + "\n")
        assert cli.run(["bench", "--verify", str(log)]) == 1
        out = capsys.readouterr().out
        assert "over-budget: z (brute)" in out
        assert "disagree: z" in out

    GOOD = {"instance": "z", "algorithm": "2cnf", "value": True, "k": 1, "leaves": 1}

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            json.dumps({key: v for key, v in GOOD.items() if key != "leaves"}),
            json.dumps({key: v for key, v in GOOD.items() if key != "k"}),
            json.dumps({key: v for key, v in GOOD.items() if key != "instance"}),
            json.dumps([GOOD]),
            json.dumps(dict(GOOD, k=-1)),
            json.dumps(dict(GOOD, k=1.5)),
            json.dumps(dict(GOOD, value="false")),
            json.dumps(dict(GOOD, value=None)),
            json.dumps(dict(GOOD, value=1)),
        ],
        ids=["not-json", "no-leaves", "no-k", "no-instance", "not-an-object", "negative-k", "float-k",
             "string-value", "null-value", "int-value"],
    )
    def test_verify_names_a_malformed_line(self, tmp_path, capsys, line):
        log = tmp_path / "bad.jsonl"
        log.write_text(json.dumps(self.GOOD) + "\n" + line + "\n")
        assert cli.run(["bench", "--verify", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qbd: line 2: a bench record")
        assert captured.err.count("\n") == 1

    def test_verify_empty_log(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert cli.run(["bench", "--verify", str(log)]) == 0
        assert "instances 0  records 0" in capsys.readouterr().out

    def test_usage_errors(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        assert cli.run(["bench", "--out", str(log)]) == 1
        assert cli.run(["bench", "--verify", str(log), "--suite", "2cnf:1:3:1"]) == 1
        assert cli.run(["bench", "--suite", "2cnf:0:3:1", "--out", str(log)]) == 1
        assert cli.run(["bench", "--suite", "nonsense", "--out", str(log)]) == 1
        assert cli.run(["bench", "--suite", "2cnf:a:b:c", "--out", str(log)]) == 1


class TestEntry:
    def test_unknown_subcommand_is_usage(self):
        with pytest.raises(SystemExit) as ei:
            cli.run(["frobnicate"])
        assert ei.value.code == 2

    def test_main_exits_with_the_run_code(self, example):
        with pytest.raises(SystemExit) as ei:
            cli.main(["detect", example])
        assert ei.value.code == 0

    def test_module_runs_as_a_script(self, example):
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "qbd.cli", "solve", example],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode in (10, 20)
        assert done.stdout.splitlines()[0] == ("s TRUE" if done.returncode == 10 else "s FALSE")
