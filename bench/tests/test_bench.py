"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
from tracer import METHODS, WRAPPED, Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in CONFIG[kind]}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_declared_metrics_match_emitted_names():
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")
    assert [w["name"] for w in CONFIG["workloads"]] == list(run.WORKLOADS)


def test_inputs_depend_only_on_seed_and_are_covered_by_reference():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        assert run.make_inputs(workload, 7, reference) == run.make_inputs(
            workload, 7, reference)
    keys = set(reference["outputs"])
    for seed in range(40):
        grid = run.make_inputs("grid", seed, reference)
        lo, hi = grid["n_range"]
        assert f"table 5:16 {lo}:{hi} plus" in keys
        assert f"table {lo}:{hi} 5:16 minus" in keys
        large = run.make_inputs("large", seed, reference)
        for m, n in (pair for band in large["bands"] for pair in band):
            assert f"tb {m} {n} plus" in keys
        n_max = run.make_inputs("verify", seed, reference)["n_max"]
        for top in (n_max, n_max // run.VERIFY_SCALE):
            assert f"verify 10 {top} 3 parity" in keys


@pytest.mark.parametrize("workload,trace", [("grid", 0), ("large", 1)])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not (ROOT / ".bench_work").exists()


def test_without_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "grid", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_loop_is_fixed_and_probe_times_each_run():
    # The end-to-end times are in units of this loop: a change to it
    # changes the unit, so its result is pinned.
    assert child.reference_work() == 14386
    probe = child.Probe()
    probe()
    probe()
    assert len(probe.samples) == 2 and min(probe.samples) > 0


def test_gate_counts_a_changed_output_as_failed():
    reference = {"outputs": {"tb 2 3 plus": "1 minimal"}}
    gate = run.Gate(reference)
    gate.check({"units": {"tb 2 3 plus": {"output": "2 minimal", "items": 1,
                                          "failed": 0}},
                "fixed_points": {"tb 5 8 minus": "3", "tb 11 6 plus": "7/11"}})
    assert (gate.attempted, gate.failed) == (3, 1)


@pytest.fixture
def tbcalc_modules():
    sys.path.insert(0, str(run.SRC))
    import tbcalc
    import tbcalc.cli  # noqa: F401

    yield tbcalc
    sys.path.remove(str(run.SRC))


def test_tracer_catches_every_binding_and_restores_them(tbcalc_modules):
    graph = sys.modules["tbcalc.graph"]
    cover = sys.modules["tbcalc.cover"]
    tb_module = sys.modules["tbcalc.tb"]
    arms = graph.arms
    bindings = {name: mod for name, mod in sys.modules.items()
                if (name == "tbcalc" or name.startswith("tbcalc.")) and mod}
    before = {(name, key): value for name, mod in bindings.items()
              for key, value in vars(mod).items()}
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        for module in (graph, cover, tb_module, sys.modules["tbcalc.verify"],
                       tbcalc_modules):
            assert module.arms is not arms and module.arms.__wrapped__ is arms
        value = tb_module.tb(11, 6, "plus").value
    finally:
        assert tracer.restore()
    after = {(name, key): value for name, mod in bindings.items()
             for key, value in vars(mod).items()}
    assert after == before
    assert len(tracer.originals) == len(WRAPPED) + len(METHODS)
    assert str(value) == "7/11"
    layers = tracer.metrics()
    assert layers["tb.evals"] == 1 and layers["graph.arms_calls"] > 0
    assert layers["charclass.tree_solve_s"] > 0
    assert layers["charclass.canonical_s"] > 0
