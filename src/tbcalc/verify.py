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
  parity:      membership laws for the characteristic set on the lift.
  structure:   the growth patterns of Gamma_f under n -> n+m / n+2m and
               of Gamma(m,n) under n -> n + 4m/gcd(m,2).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple, Optional

from .charclass import parity_checks
from .cover import SIGN_MINUS, SIGN_PLUS, CoverGraph, build_cover
from .graph import FrozenGraph
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
        minus = tb(m, n, SIGN_MINUS)
        result.checked += 1
        if not minus.is_integer:
            _violation(result, "tb_minus_integer",
                       f"tb_-({m},{n}) = {format_rational(minus.value)}",
                       m=m, n=n)
        four_case = (m % 4 == 0 and n % 2 == 1) or (n % 4 == 0 and m % 2 == 1)
        if four_case:
            plus = tb(m, n, SIGN_PLUS)
            result.checked += 1
            if not plus.is_integer:
                _violation(result, "tb_plus_integer",
                           f"tb_+({m},{n}) = {format_rational(plus.value)}",
                           m=m, n=n)
        if m % 2 == 1 and n % 2 == 1:
            plus = tb(m, n, SIGN_PLUS)
            result.checked += 1
            if plus.value != minus.value:
                _violation(result, "tb_signs_agree_odd_odd",
                           f"tb_+({m},{n}) = {format_rational(plus.value)} != "
                           f"tb_-({m},{n}) = {format_rational(minus.value)}",
                           m=m, n=n)
    return result


def _run_period(m_max: int, n_max: int, k_max: int) -> SuiteResult:
    result = SuiteResult("period")
    for m, n in _pairs(m_max, n_max, result):
        if m % 2 == 1:
            shift = 4 * m
            equal_signs = (SIGN_MINUS, SIGN_PLUS)
        elif m % 4 == 0:
            shift = 2 * m
            equal_signs = (SIGN_MINUS, SIGN_PLUS)
        else:
            shift = 2 * m
            equal_signs = ()
        n2 = n + shift
        for sign in equal_signs:
            a = tb(m, n, sign)
            b = tb(m, n2, sign)
            result.checked += 1
            if a.value != b.value:
                _violation(result, f"period_equal_{sign}",
                           f"tb({m},{n2}) = {format_rational(b.value)} != "
                           f"tb({m},{n}) = {format_rational(a.value)}",
                           m=m, n=n)
        if not equal_signs:
            a = tb(m, n, SIGN_MINUS)
            b = tb(m, n2, SIGN_MINUS)
            result.checked += 1
            if b.value - a.value != 4:
                _violation(result, "period_minus_shift",
                           f"tb_-({m},{n2}) - tb_-({m},{n}) = "
                           f"{format_rational(b.value - a.value)} != 4",
                           m=m, n=n)
            ap = tb(m, n, SIGN_PLUS)
            bp = tb(m, n2, SIGN_PLUS)
            expected = Fraction(4, n * n2)
            result.checked += 1
            if bp.value - ap.value != expected:
                _violation(result, "period_plus_shift",
                           f"tb_+({m},{n2}) - tb_+({m},{n}) = "
                           f"{format_rational(bp.value - ap.value)} != "
                           f"{format_rational(expected)}",
                           m=m, n=n)
    return result


def _run_symmetry(m_max: int, n_max: int, k_max: int) -> SuiteResult:
    result = SuiteResult("symmetry")
    for m in range(3, m_max + 1, 2):
        for k in range(1, k_max + 1):
            for t in range(2, n_max + 1):
                if math.gcd(m, t) != 1:
                    result.skipped += 1
                    continue
                partner = 4 * k * m - t
                if partner < 2:
                    result.skipped += 1
                    continue
                for sign in (SIGN_MINUS, SIGN_PLUS):
                    total = tb(m, t, sign).value + tb(m, partner, sign).value
                    result.checked += 1
                    if total != -2:
                        _violation(
                            result, f"symmetry_odd_{sign}",
                            f"tb({m},{partner}) + tb({m},{t}) = "
                            f"{format_rational(total)} != -2",
                            m=m, t=t, k=k)
    for m in range(2, m_max + 1, 2):
        expected_base = -4 if m % 4 == 0 else None
        for k in range(1, k_max + 1):
            expected = expected_base if expected_base is not None else -4 + 4 * k
            for t in range(2, n_max + 1):
                if math.gcd(m, t) != 1:
                    result.skipped += 1
                    continue
                partner = 2 * k * m - t
                if partner < 2:
                    result.skipped += 1
                    continue
                total = tb(m, t, SIGN_MINUS).value + tb(m, partner, SIGN_MINUS).value
                result.checked += 1
                if total != expected:
                    _violation(
                        result, "symmetry_even_minus",
                        f"tb_-({m},{partner}) + tb_-({m},{t}) = "
                        f"{format_rational(total)} != {expected}",
                        m=m, t=t, k=k)
    return result


def _run_parity(m_max: int, n_max: int, k_max: int) -> SuiteResult:
    result = SuiteResult("parity")
    for m, n in _pairs(m_max, n_max, result):
        cover = build_cover(m, n)
        report = parity_checks(cover.lift.characteristic, cover.lift,
                               cover.gamma_f_prime)
        for check_name, data in report.items():
            result.checked += data["checked"]
            for item in data["violations"]:
                _violation(result, check_name, str(item), m=m, n=n)
    return result


def _bamboo_arms(g: FrozenGraph, p: int) -> Iterator[list[int]]:
    """The positions of each arm of position p, heads in position order,
    each followed along the neighbour lists from its head: the arms read
    here are bamboos, so neither a walk from p nor an id lookup is needed.
    A branched arm would end at its first vertex of degree 3 or more."""
    adj, start = g.adj, g.adj_start
    for head in adj[start[p]:start[p + 1]]:
        came, q, path = p, head, [head]
        while start[q + 1] - start[q] == 2:
            came, q = q, adj[start[q]] + adj[start[q] + 1] - came
            path.append(q)
        yield path


def _gamma_f_sides(g: FrozenGraph, rupture: int, m: int, n: int):
    """Self-int and mult chains of the two rupture arms of Gamma_f,
    ordered away from the rupture, keyed by which exponent terminates
    them."""
    sides = {}
    for where in _bamboo_arms(g, g.pos(rupture)):
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
    for where in _bamboo_arms(g, g.pos(cg.e0_lift)):
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
    for m, n in _pairs(m_max, n_max, result):
        partner_n = n + (2 * m if m % 2 == 1 else m)
        base = build_cover(m, n)
        grown = build_cover(m, partner_n)
        old = _gamma_f_sides(base.gamma_f, base.rupture, m, n)
        new = _gamma_f_sides(grown.gamma_f, grown.rupture, m, partner_n)
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
        fam_old = _cover_arm_families(base.minimal)
        fam_new = _cover_arm_families(upper.minimal)
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
