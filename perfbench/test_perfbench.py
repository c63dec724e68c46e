"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from linpres import preservers  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_round_of_each_workload_passes(name):
    r = run.run_loop(workloads.build(name), seed=3, rounds=1)
    assert r.attempted == workloads.build(name).round_len
    assert r.failed == 0, r.errors
    assert r.inputs and r.verdicts


def test_op_inputs_do_not_depend_on_earlier_draws(monkeypatch):
    w = workloads.build("verify-q")
    k = 7
    def inputs(i):
        return [el.to_json_obj() for el in w.run_op(5, i)[0]]

    baseline = [inputs(i) for i in (k - 1, k)]
    original = preservers.sample_group_element
    greedy = {"left": 1}

    def draws_more(cid, form, field, rng):
        if greedy["left"]:
            greedy["left"] -= 1
            for _ in range(100):
                rng.random()
        return original(cid, form, field, rng)

    monkeypatch.setattr(preservers, "sample_group_element", draws_more)
    again = [inputs(i) for i in (k - 1, k)]
    assert again[0] != baseline[0]  # op k-1 really drew differently
    assert again[1] == baseline[1]


def test_same_seed_same_digests_other_seed_differs():
    w = workloads.build("verify-f7")
    a, b, c = (run.run_loop(w, seed=s, rounds=1) for s in (1, 1, 2))
    assert (a.inputs, a.verdicts) == (b.inputs, b.verdicts)
    assert a.inputs != c.inputs


def test_wrong_verdict_is_counted_not_raised(monkeypatch):
    def always_fails(element, form, policy="auto", rng=None, trials=None):
        return preservers.PreservationVerdict(False, "symbolic")

    monkeypatch.setattr(preservers, "preserves_form", always_fails)
    w = workloads.build("verify-f7")
    r = run.run_loop(w, seed=1, rounds=1)
    assert r.failed == r.attempted == w.round_len
    assert "OpFailure" in r.errors[0]


def test_exception_is_counted_not_raised(monkeypatch):
    def stalls(cid, form, field, rng):
        raise preservers.PreserverError("constrained sampling stalled for corollary %r" % cid)

    monkeypatch.setattr(preservers, "sample_group_element", stalls)
    r = run.run_loop(workloads.build("verify-q"), seed=1, rounds=1)
    assert r.failed == r.attempted
    assert "stalled" in r.errors[0]


@pytest.mark.parametrize(
    "name, layers",
    [
        ("verify-f7", ("sampling", "preservers", "forms", "polynomials", "linalg")),
        ("verify-q", ("sampling", "preservers", "forms", "polynomials", "linalg", "multilinear")),
        ("free-law", ("sampling", "preservers", "forms", "linalg", "multilinear", "minimality")),
    ],
)
def test_traced_round_reports_its_layers_and_restores_the_library(name, layers):
    w = workloads.build(name)
    before = preservers.sample_group_element, preservers.PreserverElement.__dict__["matrix_on_space"]
    with Tracer() as tracer:
        traced = run.run_loop(w, seed=2, rounds=1, tracer=tracer)
    assert (preservers.sample_group_element, preservers.PreserverElement.__dict__["matrix_on_space"]) == before
    replay = run.run_loop(w, seed=2, rounds=1)
    assert (traced.inputs, traced.verdicts) == (replay.inputs, replay.verdicts)
    metrics = run.per_layer(tracer, traced, replay)
    assert [n for n, _ in run.per_layer_names()] == list(metrics)
    for layer in layers:
        assert metrics["layer.%s.self_ms_per_op" % layer]["value"] > 0, layer
    assert {s[4] for s in tracer.spans} <= set(range(w.round_len))


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()
    names = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    r = run.run_loop(workloads.build("verify-f7"), seed=1, rounds=1)
    reported = run.end_to_end(r, setup=1.0)
    assert {k: v["unit"] for k, v in reported.items()} == names


def test_cli_prints_result_last(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify-f7", "--seed", "4", "--seconds", "0.1"],
        cwd=os.path.dirname(HERE),
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    ).stdout.strip().split("\n")
    result = json.loads(out[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert json.loads(out[-2])["meta"]["error_rate"] == 0


def test_cli_without_library_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-f7", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
