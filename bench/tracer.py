"""Stage spans for tbcalc, recorded from outside the package.

A Tracer rebinds every module attribute of the tbcalc package that refers
to one of the stage functions in WRAPPED (and the DecoratedGraph.copy
method) to a timing wrapper, and puts the originals back on restore().
Nothing under src/ changes: the pipeline looks its collaborators up as
module globals, so rebinding the attribute in each module that imported
the function catches every call.

Times are self times: a span's duration minus the durations of the
wrapped spans it called. Self times of all spans therefore add up to the
time spent inside the outermost spans, and nothing is counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (defining module, function) -> span name, or a map from the short name
# of the module holding the binding to a span name (None: every other
# binding). solve_intersection_system serves two stages: the adjunction
# solve in charclass and the multiplicity re-solve in embedres.
WRAPPED = {
    ("embedres", "build_gamma_f"): "embedres.build_gamma_f",
    ("embedres", "multiplicities"): "embedres.multiplicities",
    ("embedres", "separate_odd_odd"): "embedres.separate",
    ("cover", "build_cover"): "cover.build_cover",
    ("cover", "lift_double_cover"): "cover.lift",
    ("cover", "label_arms"): "cover.label_arms",
    ("cover", "minimize_and_label"): "cover.minimize",
    ("cover", "mark_real_structure"): "cover.mark",
    ("graph", "arms"): "graph.arms",
    ("graph", "blow_down_minimize"): "graph.blow_down",
    ("graph", "intersection_matrix"): "charclass.intersection_matrix",
    ("graph", "solve_intersection_system"): {
        "charclass": "charclass.tree_solve",
        "embedres": "embedres.multiplicities",
        None: "graph.tree_solve",
    },
    ("graph", "n_prime"): "tb.n_prime",
    ("graph", "arm_weight"): "tb.arm_weight",
    ("charclass", "canonical_coefficients"): "charclass.canonical",
    ("numeric", "solve_gf2"): "charclass.wu_gf2",
    ("numeric", "cf_eval"): "numeric.cf_eval",
    ("tb", "tb"): "tb.tb",
    ("cli", "cmd_table"): "cli.cmd_table",
}
METHODS = {("graph", "DecoratedGraph", "copy"): "graph.copy"}

# Entry points: their self time is glue around the stages, so it is not
# stage time (cli.cmd_table's self time is reported as cli.overhead_s).
ENTRY_SPANS = ("tb.tb", "cli.cmd_table")

COUNTERS = (
    "embedres.gamma_f_vertices", "cover.lift_vertices", "cover.minimal_vertices",
    "cover.blowdowns", "charclass.wu_unique", "charclass.wu_other",
    "tb.level_lift", "tb.evals",
)


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tbcalc" or name.startswith("tbcalc."))]


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    """Self time and call counts per span, plus stage counters."""

    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._evals: set = set()
        self._stack: list[float] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.originals: dict[tuple, object] = {}
        self._hooks = {
            "embedres.build_gamma_f": self._on_gamma_f,
            "cover.lift": self._on_lift,
            "cover.minimize": self._on_minimal,
            "graph.blow_down": self._on_blow_down,
            "charclass.canonical": self._on_canonical,
            "tb.tb": self._on_tb,
        }

    # -- counters fed from results -------------------------------------
    def _on_gamma_f(self, args, result) -> None:
        self.counts["embedres.gamma_f_vertices"] += len(result[0].vertices)

    def _on_lift(self, args, result) -> None:
        self.counts["cover.lift_vertices"] += len(result.graph.vertices)

    def _on_minimal(self, args, result) -> None:
        self.counts["cover.minimal_vertices"] += len(result.graph.vertices)

    def _on_blow_down(self, args, result) -> None:
        self.counts["cover.blowdowns"] += len(result[1])

    def _on_canonical(self, args, result) -> None:
        unique = result.wu_status == "confirmed-unique"
        self.counts["charclass.wu_unique" if unique else "charclass.wu_other"] += 1

    def _on_tb(self, args, result) -> None:
        key = tuple(args[:3])
        if key not in self._evals:
            self._evals.add(key)
            self.counts["tb.evals"] += 1
            if result.level == "lift":
                self.counts["tb.level_lift"] += 1

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn, name: str):
        stack = self._stack
        self_time = self.self_time
        calls = self.calls
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_time[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self) -> None:
        modules = _package_modules()
        for (home, attr), names in WRAPPED.items():
            original = getattr(sys.modules[f"tbcalc.{home}"], attr)
            self.originals[(home, attr)] = original
            if isinstance(names, str):
                names = {None: names}
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        name = names.get(_short(module), names[None])
                        self._bindings.append((module, key, original))
                        setattr(module, key, self._wrap(original, name))
        for (home, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"tbcalc.{home}"], cls_name)
            original = vars(cls)[attr]
            self.originals[(home, cls_name, attr)] = original
            self._bindings.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still hold an original: must be empty
        while installed."""
        originals = {id(fn) for fn in self.originals.values()}
        owners = _package_modules() + [
            getattr(sys.modules[f"tbcalc.{home}"], cls_name)
            for home, cls_name, _attr in METHODS]
        return [f"{owner.__name__}.{key}" for owner in owners
                for key, value in vars(owner).items() if id(value) in originals]

    def restore(self) -> bool:
        """Put every original back; True when each binding is restored."""
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        restored = all(vars(owner)[key] is original
                       for owner, key, original in self._bindings)
        self._bindings.clear()
        return restored

    # -- results -------------------------------------------------------
    def stage_seconds(self) -> float:
        """Time inside stage spans, entry-point glue excluded."""
        return sum(t for name, t in self.self_time.items()
                   if name not in ENTRY_SPANS)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for names in WRAPPED.values():
            for name in ([names] if isinstance(names, str) else names.values()):
                if name not in ENTRY_SPANS:
                    out[f"{name}_s"] = self.self_time[name]
        for name in METHODS.values():
            out[f"{name}_s"] = self.self_time[name]
        out["graph.copy_calls"] = self.calls["graph.copy"]
        out["graph.arms_calls"] = self.calls["graph.arms"]
        out["cli.overhead_s"] = self.self_time["cli.cmd_table"]
        out.update(self.counts)
        return out
