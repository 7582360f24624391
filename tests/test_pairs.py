"""The summariser of tools/pairs.py, on canned `bench/run.py` result lines."""

import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import pairs

    return pairs


SPEC = {"end_to_end": [
    {"name": "solve_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_ips", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def report_text(p50, ips, failed=0):
    """A `bench/run.py` report: readable lines, then the result as JSON."""
    line = json.dumps({"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
        "solve_p50_ms": {"value": p50, "unit": "ms"},
        "throughput_ips": {"value": ips, "unit": "1/s"},
    }})
    return f"gate: ok\nsolve_p50_ms {p50} ms\n{line}\n"


def test_medians_quartiles_and_wins(pairs):
    parent = [(1.0, 100.0), (1.2, 90.0), (1.1, 95.0), (0.9, 110.0), (1.0, 100.0)]
    change = [(0.8, 120.0), (1.0, 90.0), (1.2, 96.0), (0.7, 130.0), (0.9, 99.0)]
    runs = [{"first": "parent" if i % 2 == 0 else "change",
             "parent": pairs.parse_result(report_text(*p)),
             "change": pairs.parse_result(report_text(*c))}
            for i, (p, c) in enumerate(zip(parent, change))]
    out = pairs.summarise(runs, SPEC)
    p50 = out["solve_p50_ms"]
    assert p50["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.1}
    assert p50["change"] == {"median": 0.9, "q1": 0.8, "q3": 1.0}
    assert p50["won"] == 4 and p50["pairs"] == 5  # lower wins; 1.2 against 1.1 loses
    assert p50["change_over_parent"] == pytest.approx(-0.1)
    ips = out["throughput_ips"]
    assert ips["won"] == 3  # higher wins; 99 against 100 loses, and the tie at 90 counts for neither side
    assert ips["parent"]["median"] == 100.0 and ips["change"]["median"] == 99.0
    assert "change won 4/5" in pairs.report(out)


def test_a_single_pair_has_its_value_as_quartiles(pairs):
    runs = [{"parent": pairs.parse_result(report_text(2.0, 50.0)),
             "change": pairs.parse_result(report_text(2.0, 50.0))}]
    out = pairs.summarise(runs, SPEC)
    assert out["solve_p50_ms"]["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert out["solve_p50_ms"]["won"] == out["throughput_ips"]["won"] == 0


def test_a_report_without_a_result_line_is_refused(pairs):
    with pytest.raises(ValueError):
        pairs.parse_result("")
    with pytest.raises(ValueError):
        pairs.parse_result('gate: ok\n{"correct": true}\n')


def test_an_existing_trajectory_file_is_not_overwritten(pairs, monkeypatch, tmp_path):
    (tmp_path / "BENCH_x.json").write_text("{}\n")
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "run_once", lambda *a: pytest.fail("a run started"))
    code = pairs.main([str(tmp_path), str(tmp_path), "--workload", "q2cnf-branch", "--seed", "1",
                       "--label", "x"])
    assert code == 2
    assert (tmp_path / "BENCH_x.json").read_text() == "{}\n"


def test_a_run_with_a_wrong_answer_stops_and_writes_nothing(pairs, monkeypatch, tmp_path, capsys):
    """bench/run.py exits 0 on a wrong answer; its result line says so."""
    reports = iter([report_text(1.0, 100.0), report_text(1.0, 100.0, failed=3)])

    def run(cmd, cwd, **kw):
        return pairs.subprocess.CompletedProcess(cmd, 0, next(reports), "")

    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs.subprocess, "run", run)
    monkeypatch.setattr(pairs, "load_spec", lambda: {"run_seconds": 1, **SPEC})
    code = pairs.main([str(tmp_path), str(tmp_path), "--workload", "sign-wide", "--seed", "101",
                       "--pairs", "1", "--label", "x"])
    assert code == 1
    assert not (tmp_path / "BENCH_x.json").exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "pair 0" not in line]
    assert errors == ["pairs: change: sign-wide seed 101: 3/10 solves failed; nothing written"]


def test_cold_start_conditions_are_recorded_and_a_one_sided_cache_warns(pairs, monkeypatch, tmp_path, capsys):
    sides = {side: tmp_path / side for side in pairs.SIDES}
    for root in sides.values():
        (root / "src" / "qbd").mkdir(parents=True)
    (sides["parent"] / "src" / "qbd" / "__pycache__").mkdir()  # cached before the first run

    def run_once(checkout, *a):
        (checkout / "src" / "qbd" / "__pycache__").mkdir(exist_ok=True)  # every run writes one
        return pairs.parse_result(report_text(1.0, 100.0))

    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "load_spec", lambda: {"run_seconds": 1, **SPEC})
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    code = pairs.main([str(sides["parent"]), str(sides["change"]), "--workload", "w", "--seed", "1",
                       "--pairs", "2", "--label", "x"])
    assert code == 0
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["cold_start"] == {
        "python": pairs.sys.version,
        "PYTHONDONTWRITEBYTECODE": "1",
        "pycache": {"parent": {"before": True, "after": True}, "change": {"before": False, "after": True}},
    }
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(warnings) == 1 and "__pycache__ differs" in warnings[0]


def test_like_caches_on_both_sides_give_no_warning(pairs, tmp_path):
    same = {side: False for side in pairs.SIDES}
    doc, warning = pairs.cold_start(same, same)
    assert warning is None
    assert doc["pycache"]["change"] == {"before": False, "after": False}
