"""tbcalc benchmark: one workload, timed for a fixed budget, outputs checked.

    python3 bench/run.py --workload grid|large|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; tbcalc is imported from its src/. The
seed generates the workload's inputs. Passes of the workload run one at a
time, each in a fresh interpreter (bench/child.py), until S seconds have
gone by; the metrics are medians over the passes. Every pass's outputs
are compared with bench/reference.json, together with two fixed points
from the README. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 each pass runs once untraced and once
traced, and it carries the per-layer metrics. The lines before it report
the machine, the inputs and every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work" / str(os.getpid())  # per run: runs may overlap
REFERENCE = HERE / "reference.json"

WORKLOADS = ("grid", "large", "verify")
SUITES = ("integrality", "period", "symmetry", "parity", "structure")
FIXED_POINTS = {"tb 5 8 minus": "3", "tb 11 6 plus": "7/11"}

# Inputs. grid: a window of small coprime pairs whose n-range the seed
# shifts by GRID_SHIFTS steps at most. large: one pair per exponent m in
# LARGE_M from each of two lift-vertex bands, V and 2V; make_reference.py
# lists the candidate pairs of each band. verify: m_max and k_max fixed,
# n_max drawn from VERIFY_N_MAX; the scaling pass runs at
# n_max // VERIFY_SCALE.
GRID_M_RANGE = (5, 16)
GRID_N_START = 40
GRID_N_WIDTH = 60
GRID_SHIFTS = 8
LARGE_M = (2, 6)
LARGE_BANDS = (800, 1600)
LARGE_POOL = 8
VERIFY_M_MAX = 10
VERIFY_K_MAX = 3
VERIFY_N_MAX = (60, 61, 62, 63)
VERIFY_SCALE = 4

SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 60

# Times of a pass are given in units of the reference loop (child.py's
# reference_work) timed in the same process between the pass's timed
# units: the host's speed drifts by tens of percent over minutes, and the
# ratio cancels that drift. Raw seconds go to the diagnostic line.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "evals_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "scaling_exponent": "1",
}
_STAGE_TIMES = (
    "embedres.build_gamma_f_s", "embedres.multiplicities_s", "embedres.separate_s",
    "cover.build_cover_s", "cover.lift_s", "cover.label_arms_s", "cover.minimize_s",
    "cover.mark_s", "graph.copy_s", "graph.arms_s", "graph.blow_down_s",
    "charclass.canonical_s", "charclass.tree_solve_s", "charclass.wu_gf2_s",
    "charclass.intersection_matrix_s", "numeric.cf_eval_s", "tb.n_prime_s",
    "tb.arm_weight_s",
)
_COUNTS = (
    "embedres.gamma_f_vertices", "cover.lift_vertices", "cover.minimal_vertices",
    "cover.blowdowns", "cover.cache_hits", "cover.cache_misses", "graph.copy_calls",
    "graph.arms_calls", "charclass.wu_unique", "charclass.wu_other",
    "tb.level_lift", "tb.evals",
)
PER_LAYER = {
    **{name: "s" for name in _STAGE_TIMES},
    **{name: "count" for name in _COUNTS},
    "cover.cache_hit_ratio": "ratio",
    **{f"verify.{suite}_s": "s" for suite in SUITES},
    **{f"verify.{suite}_checks": "count" for suite in SUITES},
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure: no source, or a pass crashed."""


def make_inputs(workload: str, seed: int, reference: dict) -> dict:
    """The workload's generated inputs: the same seed gives the same ones."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid":
        shift = rng.randrange(GRID_SHIFTS)
        n_lo = GRID_N_START + shift
        return {"m_range": list(GRID_M_RANGE),
                "n_range": [n_lo, n_lo + GRID_N_WIDTH - 1]}
    if workload == "large":
        picks = [[rng.choice(pool) for pool in band_pools]
                 for band_pools in reference["large_pools"]]
        return {"bands": [[pick[:2] for pick in band] for band in picks],
                "band_vertices": [statistics.fmean(pick[2] for pick in band)
                                  for band in picks]}
    n_max = rng.choice(VERIFY_N_MAX)
    return {"m_max": VERIFY_M_MAX, "n_max": n_max, "k_max": VERIFY_K_MAX}


def _child_env() -> dict:
    # No PYTHON* setting (such as PYTHONOPTIMIZE) and no TBCALC_THREADS
    # reaches a pass.
    return {key: value for key, value in os.environ.items()
            if key != "TBCALC_THREADS" and not key.startswith("PYTHON")}


def run_child(workload: str, inputs: dict, trace: bool) -> dict:
    spec = {"workload": workload, "src": str(SRC), "workdir": str(WORKDIR),
            "trace": trace, "fixed_points": list(FIXED_POINTS), **inputs}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def time_setup() -> float:
    """Wall time for a fresh interpreter to finish `import tbcalc`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tbcalc"
    start = time.perf_counter()
    # No timeout: with one, the wait polls on a sleep schedule and the
    # measured time snaps to its steps.
    subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


class Gate:
    """Counts checked outputs against the reference and the fixed points."""

    def __init__(self, reference: dict) -> None:
        self.expected = reference["outputs"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def check(self, result: dict) -> None:
        for key, unit in sorted(result["units"].items()):
            self.attempted += unit["items"]
            if unit["output"] != self.expected.get(key):
                self._fail(unit["items"], f"{key}: output {unit['output']!r} "
                                          f"!= reference {self.expected.get(key)!r}")
            elif unit["failed"]:
                self._fail(unit["failed"], f"{key}: {unit['failed']} violations")
        for key, value in sorted(result["fixed_points"].items()):
            self.attempted += 1
            if value != FIXED_POINTS[key]:
                self._fail(1, f"{key} = {value}, expected {FIXED_POINTS[key]}")
        if "layers" in result:
            self.attempted += 1
            if result["unwrapped"] or not result["restored"]:
                self._fail(1, f"tracer left bindings: {result['unwrapped']}, "
                              f"restored={result['restored']}")

    def check_same(self, traced: dict, untraced: dict) -> None:
        """The traced pass must produce exactly the untraced outputs."""
        self.attempted += 1
        if {k: u["output"] for k, u in traced["units"].items()} != {
                k: u["output"] for k, u in untraced["units"].items()}:
            self._fail(1, "traced outputs differ from untraced outputs")


def _exponent(big_s: float, small_s: float, size_ratio: float) -> float:
    return math.log(big_s / small_s) / math.log(size_ratio)


def end_to_end_pass(workload: str, inputs: dict, gate: Gate) -> dict:
    main = run_child(workload, inputs, trace=False)
    gate.check(main)
    if workload == "verify":
        scaled = dict(inputs, n_max=inputs["n_max"] // VERIFY_SCALE)
        small = run_child(workload, scaled, trace=False)
        gate.check(small)
        exponent = _exponent(main["wall_s"] / main["reference_s"],
                             small["wall_s"] / small["reference_s"],
                             inputs["n_max"] / scaled["n_max"])
    elif workload == "grid":
        exponent = _exponent(main["wall_s"], main["half_s"][0], 2)
    else:
        v_small, v_big = inputs["band_vertices"]
        exponent = _exponent(main["half_s"][1], main["half_s"][0], v_big / v_small)
    wall_ref = main["wall_s"] / main["reference_s"]
    return {"wall_ref": wall_ref,
            "evals_per_ref": main["evals"] / wall_ref,
            "peak_rss_mb": main["peak_rss_mb"],
            "scaling_exponent": exponent,
            "wall_s": main["wall_s"],
            "reference_s": main["reference_s"]}


def traced_pass(workload: str, inputs: dict, gate: Gate, traced_first: bool) -> dict:
    order = (True, False) if traced_first else (False, True)
    results = {trace: run_child(workload, inputs, trace) for trace in order}
    traced, untraced = results[True], results[False]
    gate.check(untraced)
    gate.check(traced)
    gate.check_same(traced, untraced)
    layers = dict(traced["layers"])
    for suite in SUITES:
        layers[f"verify.{suite}_s"] = traced.get("suite_s", {}).get(suite, 0.0)
        layers[f"verify.{suite}_checks"] = traced.get("suite_checks", {}).get(suite, 0)
    layers["trace.overhead_ratio"] = (traced["wall_s"] / traced["reference_s"]) / (
        untraced["wall_s"] / untraced["reference_s"])
    return {name: layers[name] for name in PER_LAYER}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": sys.version.split()[0], "loadavg": os.getloadavg()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "tbcalc" / "__init__.py").is_file():
        raise BenchError(f"no tbcalc source under {SRC}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    inputs = make_inputs(workload, seed, reference)
    print(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                      "inputs": inputs, "machine": machine()}), flush=True)
    gate = Gate(reference)
    units = PER_LAYER if trace else END_TO_END
    time_setup()  # compiles bytecode once, outside the measurement
    setup: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    last = 0.0  # a pass starts only if one as long as the last still fits
    while not passes or time.perf_counter() - start + last < seconds:
        began = time.perf_counter()
        if trace:
            passes.append(traced_pass(workload, inputs, gate, len(passes) % 2 == 0))
        else:
            # Set-up samples are spread over the run, like the passes.
            setup += [time_setup() for _ in range(SETUP_PER_PASS)]
            passes.append(end_to_end_pass(workload, inputs, gate))
        last = time.perf_counter() - began
    values = {name: [p[name] for p in passes] for name in passes[0]}
    if not trace:
        values["setup_s"] = setup
    print(json.dumps({"passes": len(passes), "values": values,
                      "problems": gate.problems,
                      "loadavg_after": os.getloadavg()}), flush=True)
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": statistics.median(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
