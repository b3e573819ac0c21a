"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 bench/child.py '<json spec>'

The spec names the workload, its generated inputs, the source directory
to import tbcalc from, and whether to trace. The pass prints one JSON
line: the wall time of its timed section, the time of the reference loop
run next to it, the evaluation count, every output unit with its digest,
peak RSS, the README fixed points (computed after the timed section, so
they cannot warm the caches), and with tracing on the per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

SIGNS = ("plus", "minus")

# One run of the reference loop does REFERENCE_ROUNDS rounds (about
# 0.05 s on a 2-vCPU Xeon VM); a pass runs it between its timed units.
REFERENCE_ROUNDS = 8


def reference_work() -> int:
    """A fixed stdlib-only workload of the same kind as tbcalc's: a small
    tree as a dict of neighbour lists, copied and walked; Gauss-Jordan
    over Fractions; elimination over GF(2) on int bit rows. It uses no
    tbcalc code, so its time measures only how fast the host runs Python
    at that moment."""
    rng = random.Random(0)
    total = 0
    for _round in range(REFERENCE_ROUNDS):
        adjacency: dict[int, list[int]] = {0: []}
        for v in range(1, 300):
            u = rng.randrange(v)
            adjacency[v] = [u]
            adjacency[u].append(v)
        for _copy in range(3):
            adjacency = {v: list(ns) for v, ns in adjacency.items()}
        depth, queue = {0: 0}, [0]
        for v in queue:
            for w in adjacency[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    queue.append(w)
        total += sum(depth.values())
        size = 7
        rows = [[Fraction(rng.randint(-2, 2) + (12 if i == j else 0))
                 for j in range(size)] + [Fraction(rng.randint(-9, 9))]
                for i in range(size)]
        for col in range(size):
            pivot = rows[col][col]
            rows[col] = [x / pivot for x in rows[col]]
            for r in range(size):
                if r != col and rows[r][col]:
                    factor = rows[r][col]
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
        total += sum(row[-1].denominator % 7 for row in rows)
        bits = [rng.getrandbits(160) for _ in range(160)]
        rank = 0
        for bit in range(160):
            mask = 1 << bit
            pivot_row = next((i for i in range(rank, len(bits)) if bits[i] & mask), None)
            if pivot_row is None:
                continue
            bits[rank], bits[pivot_row] = bits[pivot_row], bits[rank]
            for i in range(len(bits)):
                if i != rank and bits[i] & mask:
                    bits[i] ^= bits[rank]
            rank += 1
        total += rank
    return total


class Probe:
    """Times one run of the reference loop per call. A pass calls it
    before, between and after its timed units, so the samples follow the
    host's speed through the pass."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)


def _no_probe() -> None:
    pass


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rational(value) -> str:
    return str(value.numerator) if value.denominator == 1 else (
        f"{value.numerator}/{value.denominator}")


def _span(lo_hi) -> str:
    return f"{lo_hi[0]}:{lo_hi[1]}"


def run_grid(spec: dict, probe=_no_probe) -> dict:
    """`tbcalc table` for both signs over the window, then over its
    transpose: the same graphs under new cache keys, so the second half
    shows whether per-pair cost grows with the work already done."""
    cli = sys.modules["tbcalc.cli"]
    window = (spec["m_range"], spec["n_range"])
    halves = (window, window[::-1])
    seconds, files = [], []
    for m_range, n_range in halves:
        seconds.append(0.0)
        for sign in SIGNS:
            path = os.path.join(spec["workdir"], f"{len(files)}.csv")
            probe()
            start = time.perf_counter()
            code = cli.main(["table", "--m-range", _span(m_range),
                             "--n-range", _span(n_range), "--sign", sign,
                             "--out", path])
            seconds[-1] += time.perf_counter() - start
            files.append((f"table {_span(m_range)} {_span(n_range)} {sign}",
                          path, code))
    probe()
    units = {}
    for key, path, code in files:
        with open(path, "rb") as handle:
            data = handle.read()
        os.remove(path)
        rows = sum(1 for line in data.splitlines()[1:] if not line.startswith(b"#"))
        units[key] = {"output": _sha256(data), "items": max(rows, 1),
                      "failed": 0 if code == 0 else max(rows, 1)}
    return {"wall_s": sum(seconds), "half_s": seconds,
            "evals": sum(u["items"] for u in units.values()), "units": units}


def run_large(spec: dict, probe=_no_probe) -> dict:
    """Public tb() for both signs on every pair of the V band, then of the
    2V band, timing each band."""
    tb = sys.modules["tbcalc.tb"].tb
    seconds, units = [], {}
    for band in spec["bands"]:
        seconds.append(0.0)
        for m, n in band:
            for sign in SIGNS:
                key = f"tb {m} {n} {sign}"
                probe()
                start = time.perf_counter()
                try:
                    result = tb(m, n, sign)
                except Exception as exc:  # recorded as a failed evaluation
                    units[key] = {"output": repr(exc), "items": 1, "failed": 1}
                    continue
                finally:
                    seconds[-1] += time.perf_counter() - start
                units[key] = {"output": f"{_rational(result.value)} {result.level}",
                              "items": 1, "failed": 0}
    probe()
    return {"wall_s": sum(seconds), "half_s": seconds,
            "evals": len(units), "units": units}


def run_verify(spec: dict, probe=_no_probe) -> dict:
    """verify_identities once per suite, in order, in one interpreter, so
    later suites reuse what earlier ones cached. Distinct tb evaluations
    are counted by a counting shim on the module attribute verify calls."""
    verify = sys.modules["tbcalc.verify"]
    inner = verify.tb
    seen = set()

    def counting_tb(m, n, sign):
        seen.add((m, n, sign))
        return inner(m, n, sign)

    m_max, n_max, k_max = spec["m_max"], spec["n_max"], spec["k_max"]
    units, suite_s, suite_checks = {}, {}, {}
    verify.tb = counting_tb
    try:
        for suite in verify.SUITE_NAMES:
            key = f"verify {m_max} {n_max} {k_max} {suite}"
            probe()
            start = time.perf_counter()
            try:
                report = verify.verify_identities(m_max, n_max, k_max, suites=[suite])
            except Exception as exc:  # recorded as a failed suite
                suite_s[suite] = time.perf_counter() - start
                suite_checks[suite] = 0
                units[key] = {"output": repr(exc), "items": 1, "failed": 1}
                continue
            suite_s[suite] = time.perf_counter() - start
            checked = report.suites[0].checked
            suite_checks[suite] = checked
            text = json.dumps(report.to_dict(), sort_keys=True).encode()
            units[key] = {"output": _sha256(text), "items": max(checked, 1),
                          "failed": report.total_violations}
    finally:
        verify.tb = inner
    probe()
    return {"wall_s": sum(suite_s.values()), "evals": len(seen), "units": units,
            "suite_s": suite_s, "suite_checks": suite_checks}


WORKLOADS = {"grid": run_grid, "large": run_large, "verify": run_verify}


def run(spec: dict) -> dict:
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import tbcalc
    import tbcalc.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(tbcalc.__file__).startswith(src + os.sep):
        raise RuntimeError(f"tbcalc imported from {tbcalc.__file__}, not {src}")
    if sys.flags.optimize or os.environ.get("TBCALC_THREADS"):
        raise RuntimeError("run without -O and without TBCALC_THREADS")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = Probe()
    try:
        out = WORKLOADS[spec["workload"]](spec, probe)
    finally:
        if tracer is not None:
            unwrapped = tracer.unwrapped_bindings()
            restored = tracer.restore()
    out["reference_s"] = statistics.median(probe.samples)
    if tracer is not None:
        cover = sys.modules["tbcalc.cover"]
        info = cover.build_cover.cache_info()
        layers = tracer.metrics()
        layers["cover.cache_hits"] = info.hits
        layers["cover.cache_misses"] = info.misses
        layers["cover.cache_hit_ratio"] = info.hits / max(info.hits + info.misses, 1)
        layers["trace.coverage"] = tracer.stage_seconds() / out["wall_s"]
        out.update(layers=layers, unwrapped=unwrapped, restored=restored)
    out["fixed_points"] = {}
    for key in spec["fixed_points"]:  # "tb <m> <n> <sign>"
        _tb, m, n, sign = key.split()
        out["fixed_points"][key] = _rational(tbcalc.tb(int(m), int(n), sign).value)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
