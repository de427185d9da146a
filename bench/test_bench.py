"""Tests of the benchmark's own code; run with pytest from the repository root."""

import importlib.util
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from newtonspec import cli  # noqa: E402
from newtonspec.polytope import PolytopeModel, build_model  # noqa: E402


def _acceptance_conftest():
    spec = importlib.util.spec_from_file_location(
        "acceptance_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_copy_matches_tests_conftest():
    # the body of the session fixture ``corpus`` in tests/conftest.py
    conf = _acceptance_conftest()
    rng = random.Random(conf.CORPUS_SEED)
    expected = [conf.random_convenient_poly(rng, 2) for _ in range(conf.N_TWO_VAR)]
    expected += [conf.random_convenient_poly(rng, 3) for _ in range(conf.N_THREE_VAR)]
    for sup in conf.NON_SIMPLICIAL_SUPPORTS:
        terms = {v: Fraction(rng.randint(1, 999983)) for v in sup}
        expected.append(conf.Poly(names=("u", "v", "w"), terms=terms, mode=conf.GLOBAL))
    assert len(expected) == 56
    assert workloads.acceptance_corpus() == expected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_order_the_same_calls_and_no_support_repeats(name):
    workload = workloads.WORKLOADS[name]

    def run(seed):
        return workloads.run_calls(workload, seed, 3 * workload.pass_seconds)

    first = run(3)
    assert first == run(3)
    assert first != run(4)
    assert sorted(first) == sorted(run(4))
    supports = set()
    for argv in first:
        p = cli.parse_polynomial(argv[1], var_order=argv[-1].split(","))
        supports.add(p.support())
    assert len(supports) == len(first)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_holds_every_call_of_a_run(name):
    workload = workloads.WORKLOADS[name]
    reference = bench.Setup(name, 5, 20).reference
    assert all(tuple(argv) in reference for argv in workloads.run_calls(workload, 5, 20))


def test_first_corpus_pass_is_the_acceptance_corpus():
    workload = workloads.WORKLOADS["corpus-check"]
    pass0 = workloads.run_calls(workload, 5, workload.pass_seconds)
    corpus = [workloads.argv_for(workload, p) for p in workloads.acceptance_corpus()]
    assert sorted(pass0) == sorted(corpus)


def test_tracer_counts_calls_and_restores_the_package():
    original = build_model
    original_method = PolytopeModel.__dict__["normalized_volume"]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.build_model is not original
        assert cli.main(["volume", "u^2 + u^2*v^2 + v^2"]) == 0
    finally:
        tracer.uninstall()
    assert cli.build_model is original
    assert PolytopeModel.__dict__["normalized_volume"] is original_method
    metrics = tracer.layer_metrics()
    assert metrics["polytope.build_model_calls"] == 1
    assert metrics["linalg.nullspace_calls"] > 0
    assert metrics["polytope.census_calls"] == 0
    # self times partition the traced top-level call
    top = [rec for (name, caller), rec in tracer.aggregates.items() if caller is None]
    assert len(top) == 1
    assert sum(metrics[m] for m in layertrace.TIME_METRICS) == pytest.approx(top[0][1] / 1e9)


def test_check_output_rules():
    check = ["check", "u + v", "--vars", "u,v"]
    assert bench.check_output(check, 0, "PASS a\nSKIP b (why)\nall checks passed\n", None) is None
    assert bench.check_output(check, 0, "PASS a\nFAIL b: x\nsome checks FAILED\n", None)
    assert bench.check_output(check, 2, "PASS a\nall checks passed\n", None)
    ref = (0, bench.stdout_digest("1\n"))
    assert bench.check_output(check, 0, "1\n", ref) is None
    assert bench.check_output(check, 0, "2\n", ref)


def test_call_past_the_cap_fails(monkeypatch):
    monkeypatch.setattr(bench, "CALL_CAP_S", 0.001)
    previous = signal.signal(signal.SIGALRM, bench.on_alarm)
    try:
        elapsed, code, _, _, error = bench.timed_call(
            ["check", "u^6 + v^6 + w^6 + u*v*w", "--vars", "u,v,w"])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert code is None and "cap" in error
