"""Contract test of the benchmark itself (tier-1, tiny ``--quick`` sizes).

Every workload, end-to-end metric and per-layer metric that
``BENCHMARK.json`` names must be emitted with its unit, nothing may fail its
oracle, nothing may raise a ``DeprecationWarning``, and the tracing shims
must be gone once a traced pass ends.
"""

import json
import os
import re
import warnings

import pytest

from bench import REPO_ROOT, compare, datagen, runner, trace

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(WORKLOADS) == set(runner.TRACE_ROUNDS) == set(datagen.DATASETS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = runner.measure(workload, seed=12, seconds=0.05,
                                scratch=str(tmp_path), quick=True)
    assert result["failed"] == 0, result["details"]["errors"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # The contract forbids end-to-end metrics that can read 0.
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_shim_removal(workload, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = runner.trace_layers(workload, seed=12, scratch=str(tmp_path),
                                     quick=True)
    assert trace.installed_shims() == []
    assert result["failed"] == 0, result["details"]["errors"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["spans"], "the traced pass recorded no span"
    metrics = result["metrics"]
    if workload == "served_point_read":
        assert metrics["server.requests_per_op"] >= 1
        assert metrics["index.lookups_per_op"] >= 1
    else:
        assert metrics["client.request_us"] == 0
    assert (metrics["annotations.per_result_cell"] > 0) \
        == (workload == "annotated_query")
    assert (metrics["storage.wal.bytes_per_commit"] > 0) \
        == (workload == "curation_write")


def test_shims_cover_their_targets_and_come_off():
    tracer = trace.Tracer()
    tracer.install()
    try:
        installed = trace.installed_shims()
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    # Every target, plus each module that imported a shimmed function by name.
    assert len(installed) > len(trace.TARGETS)
    assert trace.installed_shims() == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    build = datagen.DATASETS[workload]
    first, again, other = build(12, True), build(12, True), build(13, True)
    assert vars(first) == vars(again)
    assert [first.round(i) for i in range(3)] == [again.round(i) for i in range(3)]
    assert first.round(0) != other.round(0)
    mix = lambda ops: sorted(op.cls for op in ops)
    assert mix(first.round(0)) == mix(other.round(4))
    assert {key: len(value) for key, value in vars(first).items()
            if isinstance(value, (list, dict))} \
        == {key: len(value) for key, value in vars(other).items()
            if isinstance(value, (list, dict))}


def test_compare_flags_cells_beyond_their_bound(tmp_path, capsys):
    def results(path, throughput, failed=0):
        runs = [{"workload": workload, "seed": 12, "trace": 0, "failed": failed,
                 "metrics": {metric["name"]: {"value": throughput
                                              if metric["name"] == "throughput_ops_s"
                                              else 1.0, "unit": metric["unit"]}
                             for metric in SPEC["end_to_end"]}}
                for workload in WORKLOADS]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base = results(tmp_path / "a.json", 100.0)
    assert compare.main([base, results(tmp_path / "b.json", 95.0)]) == 0
    assert compare.main([base, results(tmp_path / "c.json", 80.0)]) == 1
    assert compare.main([base, results(tmp_path / "d.json", 100.0, failed=1)]) == 1
    assert "BEYOND BOUND" in capsys.readouterr().out
