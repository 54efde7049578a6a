"""``bench/compare.py`` reads two benchmark runs the way the gate does.

For every workload × end-to-end metric of ``BENCHMARK.json`` it compares the
medians of two ``bench/run.py --out`` files and calls the row ``worse`` past
the metric's bound, ``unresolved`` when either run spreads wider than the
bound, ``ok`` otherwise; the script exits 1 on any ``worse`` row and 2 on
incomparable inputs.  The inputs here are synthetic result files shaped like
``bench/run.py`` writes them, so nothing is timed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = ROOT / "bench" / "compare.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(contract, overrides=None, *, seed=1, seconds=8, runs=3,
            sha="0000000"):
    """A result file whose every metric reads ``[100.0] * runs`` except the
    ``(workload, metric)`` rows named in ``overrides``."""
    overrides = overrides or {}
    workloads = {}
    for entry in contract["workloads"]:
        metrics = {}
        for metric in contract["end_to_end"]:
            key = (entry["name"], metric["name"])
            metrics[metric["name"]] = {
                "values": list(overrides.get(key, [100.0] * runs))}
        workloads[entry["name"]] = {"metrics": metrics}
    return {"provenance": {"seed": seed, "seconds": seconds, "runs": runs,
                           "git_sha": sha},
            "workloads": workloads}


def _verdicts(compare, contract, base, other):
    return {(row[0], row[1]): row[-1]
            for row in compare.compare(base, other, contract)}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_spread_of_fewer_than_two_runs_is_zero(compare):
    assert compare.spread([]) == 0.0
    assert compare.spread([42.0]) == 0.0


def test_spread_is_interquartile_share_of_median(compare):
    assert compare.spread([90.0, 100.0, 110.0]) == pytest.approx(0.2)
    assert compare.spread([100.0, 100.0, 100.0]) == 0.0


def test_one_ok_row_per_workload_and_metric(compare, contract):
    rows = compare.compare(_result(contract), _result(contract), contract)
    assert [(row[0], row[1]) for row in rows] == [
        (entry["name"], metric["name"])
        for entry in contract["workloads"]
        for metric in contract["end_to_end"]]
    assert {row[-1] for row in rows} == {"ok"}
    assert {row[4] for row in rows} == {1.0}


@pytest.mark.parametrize("metric,values", [("throughput", [70.0] * 3),
                                           ("op_p50_ms", [130.0] * 3)])
def test_worse_beyond_the_bound(compare, contract, metric, values):
    key = ("mono_exact", metric)
    verdicts = _verdicts(compare, contract, _result(contract),
                         _result(contract, {key: values}))
    assert verdicts.pop(key) == "worse"
    assert set(verdicts.values()) == {"ok"}


@pytest.mark.parametrize("metric,values", [("throughput", [80.0] * 3),
                                           ("op_p50_ms", [120.0] * 3)])
def test_within_the_bound_is_ok(compare, contract, metric, values):
    verdicts = _verdicts(compare, contract, _result(contract),
                         _result(contract, {("build", metric): values}))
    assert set(verdicts.values()) == {"ok"}


@pytest.mark.parametrize("metric,values", [("throughput", [200.0] * 3),
                                           ("op_p50_ms", [50.0] * 3)])
def test_an_improvement_is_never_worse(compare, contract, metric, values):
    verdicts = _verdicts(compare, contract, _result(contract),
                         _result(contract, {("build", metric): values}))
    assert set(verdicts.values()) == {"ok"}


def test_recall_reads_its_own_tight_bound(compare, contract):
    key = ("mono_int8", "recall_at_10")
    base = _result(contract, {key: [0.99] * 3})
    assert _verdicts(compare, contract, base,
                     _result(contract, {key: [0.98] * 3}))[key] == "worse"
    assert _verdicts(compare, contract, base,
                     _result(contract, {key: [0.988] * 3}))[key] == "ok"


@pytest.mark.parametrize("side", ["base", "other"])
def test_wide_spread_is_unresolved_not_worse(compare, contract, side):
    key = ("sharded_routed", "throughput")
    wide = {key: [40.0, 70.0, 100.0]}
    base = _result(contract, wide if side == "base" else None)
    other = _result(contract, wide if side == "other" else None)
    verdicts = _verdicts(compare, contract, base, other)
    assert verdicts.pop(key) == "unresolved"
    assert set(verdicts.values()) == {"ok"}


def test_main_exits_zero_when_nothing_is_worse(compare, contract, tmp_path,
                                               capsys):
    base = _write(tmp_path, "a.json", _result(contract, sha="aaaaaaa"))
    other = _write(tmp_path, "b.json", _result(
        contract, {("build", "throughput"): [110.0] * 3}, sha="bbbbbbb"))
    assert compare.main(["compare.py", base, other]) == 0
    out = capsys.readouterr().out
    assert "(aaaaaaa)" in out and "(bbbbbbb)" in out
    assert "worse" not in out


def test_main_exits_one_when_a_row_is_worse(compare, contract, tmp_path,
                                            capsys):
    base = _write(tmp_path, "a.json", _result(contract))
    other = _write(tmp_path, "b.json", _result(
        contract, {("remote_single", "peak_rss_mb"): [200.0] * 3}))
    assert compare.main(["compare.py", base, other]) == 1
    worse = [line for line in capsys.readouterr().out.splitlines()
             if line.endswith("worse")]
    assert len(worse) == 1
    assert worse[0].split()[:2] == ["remote_single", "peak_rss_mb"]


@pytest.mark.parametrize("key", ["seed", "seconds", "runs"])
def test_main_refuses_incomparable_runs(compare, contract, tmp_path, capsys,
                                        key):
    changed = {"seed": 2, "seconds": 4, "runs": 5}
    base = _write(tmp_path, "a.json", _result(contract))
    other = _write(tmp_path, "b.json",
                   _result(contract, **{key: changed[key]}))
    assert compare.main(["compare.py", base, other]) == 2
    assert f"{key} differs" in capsys.readouterr().err


def test_main_without_two_files_prints_usage(compare, capsys):
    assert compare.main(["compare.py"]) == 2
    assert "bench/compare.py A.json B.json" in capsys.readouterr().err
