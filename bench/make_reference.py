"""Regenerate bench/reference.json from the tbcalc under src/.

    python3 bench/make_reference.py

The reference holds the expected output of every unit any seed can
generate, plus the candidate pairs of the large workload's vertex bands.
Regenerate it only in a change that means to alter tbcalc's outputs or the
benchmark's inputs, and say so in that change: every pass is checked
against this file.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys

import child
import run


def lift_vertices(m: int, n: int) -> int:
    return len(sys.modules["tbcalc.cover"].build_cover(m, n).lift.graph.vertices)


def coprime_from(m: int, n: int) -> int:
    while math.gcd(m, n) != 1:
        n += 1
    return n


def band_pool(m: int, target: int) -> list[list[int]]:
    """The LARGE_POOL pairs (m, n) whose lift vertex count is nearest the
    target; V grows linearly in n for fixed m, so a secant guess plus a
    scan around it finds them."""
    lo = coprime_from(m, target // 2)
    hi = coprime_from(m, lo + 60)
    slope = (lift_vertices(m, hi) - lift_vertices(m, lo)) / (hi - lo)
    guess = round(lo + (target - lift_vertices(m, lo)) / slope)
    reach = int(4 * run.LARGE_POOL / slope) + 8
    found = []
    for n in range(max(guess - reach, 2), guess + reach + 1):
        if math.gcd(m, n) == 1:
            found.append((abs(lift_vertices(m, n) - target), n))
    sys.modules["tbcalc.cover"].build_cover.cache_clear()
    return [[m, n, lift_vertices(m, n)] for _gap, n in sorted(found)[:run.LARGE_POOL]]


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import tbcalc.cli  # noqa: F401  (child's runners look modules up by name)

    run.WORKDIR.mkdir(parents=True, exist_ok=True)
    outputs = {}
    try:
        for shift in range(run.GRID_SHIFTS):
            n_lo = run.GRID_N_START + shift
            spec = {"m_range": list(run.GRID_M_RANGE),
                    "n_range": [n_lo, n_lo + run.GRID_N_WIDTH - 1],
                    "workdir": str(run.WORKDIR)}
            outputs.update(child.run_grid(spec)["units"])
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORKDIR.parent.rmdir()
    pools = [[band_pool(m, target) for m in run.LARGE_M] for target in run.LARGE_BANDS]
    for band_pools in pools:
        for pool in band_pools:
            pairs = [pick[:2] for pick in pool]
            outputs.update(child.run_large({"bands": [pairs]})["units"])
    for n_max in sorted({n for top in run.VERIFY_N_MAX for n in (top, top // run.VERIFY_SCALE)}):
        spec = {"m_max": run.VERIFY_M_MAX, "n_max": n_max, "k_max": run.VERIFY_K_MAX}
        outputs.update(child.run_verify(spec)["units"])
    bad = [key for key, unit in outputs.items() if unit["failed"]]
    if bad:
        raise SystemExit(f"outputs with failures, not recorded: {bad}")
    reference = {"outputs": {key: unit["output"] for key, unit in sorted(outputs.items())},
                 "large_pools": pools}
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
