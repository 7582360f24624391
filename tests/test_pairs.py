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


def report_text(p50, ips):
    """A `bench/run.py` report: readable lines, then the result as JSON."""
    line = json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
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
