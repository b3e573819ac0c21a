"""Machine verification of the tb identities over exponent grids.

Each suite evaluates one family of exact statements about tb(m, n, sign)
or about the graphs themselves, over every valid exponent pair in a grid.
All checks are exact rational comparisons; a passing run has zero
violations. Generated instances that fall outside the statements'
hypotheses (gcd > 1, exponent below 2, or a degenerate minimal graph) are
skipped and counted, so reports are reproducible.

Suites:
  integrality: tb_minus is an integer; tb_plus is an integer when one
               exponent is divisible by 4 and the other is odd; the two
               signs agree when both exponents are odd.
  period:      tb is unchanged by n -> n+4m (m odd) and n -> n+2m (4|m);
               for m = 2 mod 4, n -> n+2m shifts tb_minus by 4 and
               tb_plus by 4/(n(n+2m)).
  symmetry:    m odd: tb(m, 4km-t) + tb(m, t) = -2 for both signs;
               m even: tb_minus(m, 2km-t) + tb_minus(m, t) = -4 (4|m)
               or -4+4k (m = 2 mod 4).
  parity:      membership laws for W on the lift, the pull-back read mod 2.
  structure:   the growth patterns of Gamma_f under n -> n+m / n+2m and
               of Gamma(m,n) under n -> n + 4m/gcd(m,2).

The suites ask for the same tb value many times: a pair's period partner
is another pair's base, and the symmetry suite revisits the whole grid.
They read values through _tb_value, a process-wide memo of
tb(m, n, sign).value bounded like build_cover's cache (the 2,048 most
recently used keys, both signs of the 1,024 keys it keeps), so a process
evaluates each (m, n, sign) once. It holds Fractions only, and tb itself
stays uncached. On a miss it calls the module global tb, so code that
rebinds tbcalc.verify.tb must call _tb_value.cache_clear() before and
after. The structure suite reads each cover's arms once per run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .cover import SIGN_MINUS, SIGN_PLUS, CoverGraph, build_cover
from .graph import FrozenGraph, _arm_positions, _column
# arms stays bound here: the benchmark's tracer tests wrap verify.arms.
from .graph import arms  # noqa: F401
from .numeric import format_rational
from .tb import tb

SUITE_NAMES = ("integrality", "period", "symmetry", "parity", "structure")


class SuiteResult:
    """The counts and violations of one suite, which its runner adds to."""

    __slots__ = ("name", "checked", "skipped", "violations")

    def __init__(self, name: str, checked: int = 0, skipped: int = 0,
                 violations: Optional[list] = None) -> None:
        self.name, self.checked, self.skipped = name, checked, skipped
        self.violations = [] if violations is None else violations

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "skipped": self.skipped,
            "violations": self.violations,
        }


class VerifyReport(NamedTuple):
    m_max: int
    n_max: int
    k_max: int
    suites: list[SuiteResult]

    @property
    def total_violations(self) -> int:
        return sum(len(s.violations) for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "m_max": self.m_max,
            "n_max": self.n_max,
            "k_max": self.k_max,
            "total_violations": self.total_violations,
            "suites": [s.to_dict() for s in self.suites],
        }


@lru_cache(maxsize=2048, typed=True)
def _tb_value(m: int, n: int, sign: str) -> Fraction:
    """tb(m, n, sign).value, evaluated once per process while it stays
    among the 2,048 most recently used keys."""
    return tb(m, n, sign).value


def _pairs(m_max: int, n_max: int, result: SuiteResult):
    for m in range(2, m_max + 1):
        for n in range(2, n_max + 1):
            if math.gcd(m, n) != 1:
                result.skipped += 1
                continue
            yield m, n


def _violation(result: SuiteResult, identity: str, detail: str, **instance) -> None:
    record = {"identity": identity, "detail": detail}
    record.update(instance)
    result.violations.append(record)


def _run_integrality(m_max: int, n_max: int, k_max: int) -> SuiteResult:
    result = SuiteResult("integrality")
    for m, n in _pairs(m_max, n_max, result):
        minus = _tb_value(m, n, SIGN_MINUS)
        result.checked += 1
        if minus.denominator != 1:
            _violation(result, "tb_minus_integer",
                       f"tb_-({m},{n}) = {format_rational(minus)}",
                       m=m, n=n)
        four_case = (m % 4 == 0 and n % 2 == 1) or (n % 4 == 0 and m % 2 == 1)
        if four_case:
            plus = _tb_value(m, n, SIGN_PLUS)
            result.checked += 1
            if plus.denominator != 1:
                _violation(result, "tb_plus_integer",
                           f"tb_+({m},{n}) = {format_rational(plus)}",
                           m=m, n=n)
        if m % 2 == 1 and n % 2 == 1:
            plus = _tb_value(m, n, SIGN_PLUS)
            result.checked += 1
            if plus != minus:
                _violation(result, "tb_signs_agree_odd_odd",
                           f"tb_+({m},{n}) = {format_rational(plus)} != "
                           f"tb_-({m},{n}) = {format_rational(minus)}",
                           m=m, n=n)
    return result


def _run_period(m_max: int, n_max: int, k_max: int) -> SuiteResult:
    result = SuiteResult("period")
    for m, n in _pairs(m_max, n_max, result):
        n2 = n + (4 * m if m % 2 else 2 * m)
        if m % 4 != 2:
            for sign in (SIGN_MINUS, SIGN_PLUS):
                a, b = _tb_value(m, n, sign), _tb_value(m, n2, sign)
                result.checked += 1
                if a != b:
                    _violation(result, f"period_equal_{sign}",
                               f"tb({m},{n2}) = {format_rational(b)} != "
                               f"tb({m},{n}) = {format_rational(a)}",
                               m=m, n=n)
            continue
        for sign, mark, expected in ((SIGN_MINUS, "-", 4), (SIGN_PLUS, "+", Fraction(4, n * n2))):
            step = _tb_value(m, n2, sign) - _tb_value(m, n, sign)
            result.checked += 1
            if step != expected:
                _violation(result, f"period_{sign}_shift",
                           f"tb_{mark}({m},{n2}) - tb_{mark}({m},{n}) = "
                           f"{format_rational(step)} != {format_rational(expected)}",
                           m=m, n=n)
    return result


def _symmetric_pairs(m_start: int, factor: int, m_max: int, n_max: int, k_max: int,
                     result: SuiteResult):
    """(m, k, t, factor*k*m - t) over m_start, m_start + 2, ... <= m_max, k <= k_max and
    2 <= t <= n_max; a t not coprime to m or with partner below 2 is skipped and counted."""
    for m in range(m_start, m_max + 1, 2):
        for k in range(1, k_max + 1):
            for t in range(2, n_max + 1):
                partner = factor * k * m - t
                if math.gcd(m, t) != 1 or partner < 2:
                    result.skipped += 1
                    continue
                yield m, k, t, partner


def _run_symmetry(m_max: int, n_max: int, k_max: int) -> SuiteResult:
    result = SuiteResult("symmetry")
    for m, k, t, partner in _symmetric_pairs(3, 4, m_max, n_max, k_max, result):
        for sign in (SIGN_MINUS, SIGN_PLUS):
            total = _tb_value(m, t, sign) + _tb_value(m, partner, sign)
            result.checked += 1
            if total != -2:
                _violation(result, f"symmetry_odd_{sign}",
                           f"tb({m},{partner}) + tb({m},{t}) = "
                           f"{format_rational(total)} != -2",
                           m=m, t=t, k=k)
    for m, k, t, partner in _symmetric_pairs(2, 2, m_max, n_max, k_max, result):
        expected = -4 if m % 4 == 0 else -4 + 4 * k
        total = _tb_value(m, t, SIGN_MINUS) + _tb_value(m, partner, SIGN_MINUS)
        result.checked += 1
        if total != expected:
            _violation(result, "symmetry_even_minus",
                       f"tb_-({m},{partner}) + tb_-({m},{t}) = "
                       f"{format_rational(total)} != {expected}",
                       m=m, t=t, k=k)
    return result


def _run_parity(m_max: int, n_max: int, k_max: int) -> SuiteResult:
    """The membership laws for W on the lift, over each lifted curve of a
    Gamma'_f curve with multiplicity m_j and c1 coefficient b_j:

    odd_mult_not_in_w:    m_j odd implies the lift is not in W;
    even_mult_parity_law: for even m_j, the lift is in W iff b_j + m_j/2 is odd;
    rupture_membership:   with one even exponent, e^0 is in W iff that
                          exponent is 2 mod 4.

    The first two are the pull-back coefficients 2b_j + m_j - 1 (odd m_j)
    and b_j + m_j/2 (even m_j) read mod 2. label_arms has checked that the
    lift and Gamma'_f are numbered 0 .. V-1, so both are read by position.
    W is the lift's solved W: the pull-back formula gives Gamma(m,n) its
    coefficients, so a pulled-back W would check that formula against itself.
    """
    result = SuiteResult("parity")
    for m, n in _pairs(m_max, n_max, result):
        cover = build_cover(m, n)
        lift, down = cover.lift, cover.gamma_f_prime
        w, below_column = lift.characteristic.w, _column(lift.graph, lift.downstairs)
        # Each lifted curve is checked by the law of its multiplicity's parity.
        result.checked += len(below_column)
        odd, even = [], []
        for v, below in enumerate(below_column):
            mult, b, in_w = down.mult[below], down.c1_coeff[below], v in w
            if mult % 2:
                if in_w:
                    odd.append({"vertex": v, "downstairs": below, "mult": mult})
            elif in_w != ((b + mult // 2) % 2 == 1):
                even.append({"vertex": v, "downstairs": below, "mult": mult,
                             "b": b, "in_w": in_w})
        for identity, items in (("odd_mult_not_in_w", odd), ("even_mult_parity_law", even)):
            for item in items:
                _violation(result, identity, str(item), m=m, n=n)
        if (m + n) % 2:
            even_exp, in_w = m if m % 2 == 0 else n, lift.e0_lift in w
            result.checked += 1
            if in_w != (even_exp % 4 == 2):
                _violation(result, "rupture_membership",
                           str({"vertex": lift.e0_lift, "even_exponent": even_exp,
                                "in_w": in_w}), m=m, n=n)
    return result


def _gamma_f_sides(g: FrozenGraph, rupture: int, m: int, n: int):
    """Self-int and mult chains of the two rupture arms of Gamma_f,
    ordered away from the rupture, keyed by which exponent terminates
    them."""
    sides = {}
    for where in _arm_positions(g, g.pos(rupture)):
        selfs = tuple(map(g.self_int.__getitem__, where))
        mults = tuple(map(g.mult.__getitem__, where))
        if mults[-1] == m:
            sides["m"] = (selfs, mults)
        elif mults[-1] == n:
            sides["n"] = (selfs, mults)
    return sides


def _cover_arm_families(cg: CoverGraph):
    """Arms of e^0 on a minimal cover graph, grouped by family label.

    Returns {family: sorted list of (selfs tuple, vertex tuple)} where
    family is "n_arm", "m_arm" or None for the branch-side arm.
    """
    g = cg.graph
    families: dict = {"n_arm": [], "m_arm": [], None: []}
    for where in _arm_positions(g, g.pos(cg.e0_lift)):
        label = g.arm_label[where[0]] or ""
        if label.startswith("n_arm"):
            family = "n_arm"
        elif label.startswith("m_arm"):
            family = "m_arm"
        else:
            family = None
        selfs = tuple(map(g.self_int.__getitem__, where))
        families[family].append((selfs, tuple(map(g.ids.__getitem__, where))))
    for chains in families.values():
        chains.sort()
    return families


def _run_structure(m_max: int, n_max: int, k_max: int) -> SuiteResult:
    result = SuiteResult("structure")
    # Arms read for a pair's grown or upper cover wait here, keyed by
    # (m, n), until the pair that has that cover as its base pops them, so
    # each cover's arms are read once.
    sides: dict = {}
    families: dict = {}
    for m, n in _pairs(m_max, n_max, result):
        partner_n = n + (2 * m if m % 2 == 1 else m)
        base = build_cover(m, n)
        grown = build_cover(m, partner_n)
        old = sides.pop((m, n), None) or _gamma_f_sides(base.gamma_f, base.rupture, m, n)
        new = sides[m, partner_n] = _gamma_f_sides(grown.gamma_f, grown.rupture,
                                                   m, partner_n)
        old_selfs, _old_mults = old["m"]
        new_selfs, new_mults = new["m"]
        grew_by = 2 if m % 2 == 1 else 1
        result.checked += 1
        ok = (
            len(new_selfs) == len(old_selfs) + grew_by
            and new_selfs[: len(old_selfs)] == old_selfs
            and new_mults[-1] == m
            and old["n"][0] == new["n"][0]
        )
        if ok and m % 2 == 1:
            ok = new_selfs[-1] == -2 and new_mults[-2] == 2 * m
        if not ok:
            _violation(result, "gamma_f_growth",
                       f"Gamma_f({m},{partner_n}) does not extend "
                       f"Gamma_f({m},{n}) by the expected terminal pattern",
                       m=m, n=n)

        shift = 4 * m // math.gcd(m, 2)
        upper = build_cover(m, n + shift)
        if base.minimal.e0_lift is None or upper.minimal.e0_lift is None:
            result.skipped += 1
            continue
        fam_old = families.pop((m, n), None) or _cover_arm_families(base.minimal)
        fam_new = families[m, n + shift] = _cover_arm_families(upper.minimal)
        e0_old, e0_new = (c.graph.self_int[c.graph.pos(c.e0_lift)]
                          for c in (base.minimal, upper.minimal))
        result.checked += 1
        structural_ok = (
            e0_old == e0_new
            and [c for c, _v in fam_old["m_arm"]] == [c for c, _v in fam_new["m_arm"]]
            and [c for c, _v in fam_old[None]] == [c for c, _v in fam_new[None]]
            and len(fam_old["n_arm"]) == len(fam_new["n_arm"]) == math.gcd(m, 2)
        )
        if not structural_ok:
            _violation(result, "cover_growth_frame",
                       f"Gamma({m},{n + shift}) differs from Gamma({m},{n}) "
                       "outside the (n)-arms",
                       m=m, n=n)
            continue
        cd_new = upper.minimal.characteristic
        for (old_chain, _ov), (new_chain, new_vertices) in zip(
            fam_old["n_arm"], fam_new["n_arm"]
        ):
            result.checked += 1
            if not (
                len(new_chain) == len(old_chain) + 2
                and new_chain[: len(old_chain)] == old_chain
                and new_chain[-1] == -2
            ):
                _violation(result, "cover_n_arm_growth",
                           f"(n)-arm of Gamma({m},{n + shift}) is not the "
                           f"(n)-arm of Gamma({m},{n}) plus two vertices "
                           "ending in -2",
                           m=m, n=n)
                continue
            result.checked += 1
            terminal, inner = new_vertices[-1], new_vertices[-2]
            if m % 4 == 2:
                # Here the growth is what shifts tb_-: both appended
                # vertices stay outside W, so N grows with no n' offset.
                ok_w = terminal not in cd_new.w and inner not in cd_new.w
                detail = "appended vertices must both lie outside W"
            else:
                ok_w = terminal in cd_new.w and inner not in cd_new.w
                detail = ("appended terminal vertex must lie in W and its "
                          "neighbor outside W")
            if not ok_w:
                _violation(result, "cover_n_arm_terminal_w", detail, m=m, n=n)
    return result


_RUNNERS = {
    "integrality": _run_integrality,
    "period": _run_period,
    "symmetry": _run_symmetry,
    "parity": _run_parity,
    "structure": _run_structure,
}


def verify_identities(
    m_max: int,
    n_max: int,
    k_max: int = 3,
    suites=SUITE_NAMES,
) -> VerifyReport:
    """Run the requested suites over the grid 2 <= m <= m_max,
    2 <= n <= n_max (and k <= k_max where applicable)."""
    for name in suites:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    results = [_RUNNERS[name](m_max, n_max, k_max) for name in suites]
    return VerifyReport(m_max=m_max, n_max=n_max, k_max=k_max, suites=results)
