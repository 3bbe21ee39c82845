"""Acceptance gate: one test per shipped guarantee, one summary line each.

Each test prints ``criterion N: PASS/FAIL - detail`` (visible with ``-s``;
the same text is the assertion message, so failures carry it too), and the
one-test-per-criterion layout makes the verbose pytest listing double as
the pass/fail table.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cfqm import bounds, planner, propagators, schemes, spin_model
from cfqm.planner import ModelBounds, plan
from cfqm.schemes import SCHEME_IDS
from oracles import compositions, magnus_coeffs_dp, weak_composition_factorial_sum


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_composition_identities():
    t_start = time.perf_counter()
    identities_ok = True
    for m in range(1, 7):
        for d in range(0, 11):
            got = weak_composition_factorial_sum(d, m)
            identities_ok &= got == Fraction(m ** d, math.factorial(d))
    for p in range(1, 21):
        identities_ok &= len(compositions(p)) == 2 ** (p - 1)
    elapsed = time.perf_counter() - t_start
    compositions.cache_clear()  # drop the ~2**19-tuple level
    _verdict(1, identities_ok and elapsed < 1.0,
             f"exact identities d<=10/m<=6 and p<=20, {elapsed:.2f}s (cap 1s)")


def test_criterion_02_magnus_coefficient_routes_agree():
    t_start = time.perf_counter()
    worst = 0.0
    for c in (0.25, 0.5, 1.0):
        dp = magnus_coeffs_dp(c, 25)
        gf = bounds._magnus_table(c)
        for p in range(1, 26):
            worst = max(worst, abs(dp[p] - gf[p]) / gf[p])
    elapsed = time.perf_counter() - t_start
    _verdict(2, worst <= 1e-10 and elapsed < 10.0,
             f"composition-DP vs generating-function p<=25, worst rel "
             f"{worst:.2e}, {elapsed:.2f}s (cap 10s)")


def test_criterion_03_product_remainder_closed_form():
    # closed form per order: sum_z C(p-1, z-1) (cbar m)**z / z!; the direct
    # route distributes p over m exponentials (weak composition) and within
    # each exponential over z_i parts (binomial), all in exact arithmetic.
    # Summing over the weak compositions of p into m parts is taking the
    # x**p coefficient of the m-th Cauchy power of 1 + sum_q per_part[q] x**q
    cbar = Fraction(1, 3)
    order = 20
    per_part = [Fraction(1)] + [
        sum(Fraction(math.comb(q - 1, l - 1)) * cbar ** l
            / math.factorial(l) for l in range(1, q + 1))
        for q in range(1, order + 1)
    ]
    worst_exact = True
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, 7):
        power = [sum(power[i] * per_part[p - i] for i in range(p + 1))
                 for p in range(order + 1)]
        for p in range(1, order + 1):
            closed = sum(
                Fraction(math.comb(p - 1, z - 1)) * (cbar * m) ** z
                / math.factorial(z) for z in range(1, p + 1))
            worst_exact &= closed == power[p]
    _verdict(3, worst_exact,
             "per-order product remainder == m-th Cauchy power of the "
             "per-exponential series (the weak-composition sum), "
             "p<=20 m<=6, exact rationals (rel 1e-12 trivially)")


def test_criterion_04_quadrature_inner_tail():
    worst = 0.0
    for c, h, s in ((1.0, 1.0, 1), (1.0, 1.0, 2), (0.5, 0.3, 1),
                    (2.0, 1.5, 3), (1.0, 0.1, 2)):
        closed = bounds._quadrature_inner_sum(c, h, s)
        direct = 0.0
        term = c * float(math.factorial(2 * s))
        for l in range(1, 400):
            direct += term
            term *= (2 * s + l) / l * (h / 2.0)
            if term < 1e-18 * direct:
                direct += term
                break
        worst = max(worst, abs(direct - closed) / closed)
    hand = bounds._quadrature_inner_sum(1.0, 1.0, 1)
    _verdict(4, worst <= 1e-10 and hand == pytest.approx(16.0, rel=1e-12),
             f"truncated tail -> c(2s)!/(1-h/2)^(2s+1), worst rel {worst:.2e}; "
             f"s=1,h=1,c=1 gives {hand:g}")


def test_criterion_05_convergence_orders():
    t_start = time.perf_counter()
    model = spin_model.random_model(6, seed=2024)
    grid = list(np.geomspace(0.35, 0.7, 5))
    details = []
    ok = True
    for scheme_id in SCHEME_IDS:
        scheme = schemes.load_scheme(scheme_id)
        slope = planner.verify_order(scheme, model, grid)
        target = 2 * scheme.s + 1
        ok &= abs(slope - target) <= 0.3
        details.append(f"{scheme_id} {slope:.2f}/{target}")
    elapsed = time.perf_counter() - t_start
    _verdict(5, ok and elapsed < 300.0,
             f"slopes within +-0.3 ({', '.join(details)}), "
             f"{elapsed:.1f}s (cap 300s)")


@pytest.fixture(scope="module")
def suite_measurements(sample_suite):
    """Measured one-step errors and bounds for every (scheme, sample) pair.

    Computed once; criteria 6 and 7 read different columns.  References are
    memoized per window inside the propagator module, so the per-scheme
    loops reuse them.
    """
    per_scheme = {}
    for scheme_id in SCHEME_IDS:
        scheme = schemes.load_scheme(scheme_id)
        rows = []
        for sample in sample_suite:
            model, t0, h = sample.model, sample.t0, sample.h
            cbar = schemes.compute_cbar(scheme, 1.0)
            params = bounds.BoundParams(c=1.0, cbar=cbar, h=h, s=scheme.s,
                                        m=scheme.m, n=model.n)
            breakdown = bounds.step_error(scheme, params, 1e-6)
            ref = propagators.reference_propagator(model, t0, t0 + h,
                                                   tol=sample.reference_tol)
            if scheme.is_split:
                step = propagators.split_step(scheme, model, t0, h)
                trot_defect = trot_bound = None
            else:
                step = propagators.trotterized_cfqm_step(scheme, model, t0, h)
                exact = propagators.cfqm_step(scheme, model, t0, h)
                trot_defect = propagators.spectral_distance(step, exact)
                trot_bound = bounds.trotter_step_error(scheme.z, model.n, h,
                                                       scheme.s)
            measured = propagators.spectral_distance(step, ref)
            rows.append((measured, breakdown.total, trot_defect, trot_bound))
        per_scheme[scheme_id] = rows
    return per_scheme


def test_criterion_06_step_bound_soundness(suite_measurements):
    violations = 0
    worst = 0.0
    count = 0
    for rows in suite_measurements.values():
        for measured, total, _, _ in rows:
            count += 1
            violations += measured > total
            worst = max(worst, measured / total)
    _verdict(6, violations == 0,
             f"{count} (scheme, sample) pairs, worst measured/bound "
             f"{worst:.2e}, {violations} violations")


def test_criterion_07_trotter_bound_soundness(suite_measurements):
    violations = 0
    worst = 0.0
    count = 0
    for rows in suite_measurements.values():
        for _, _, trot_defect, trot_bound in rows:
            if trot_defect is None:
                continue
            count += 1
            violations += trot_defect > trot_bound
            worst = max(worst, trot_defect / trot_bound)
    # control: zero drive frequency and quarter-pi phases kill the field at
    # n=2, the two blocks commute and the product formula is exact
    control = spin_model.HeisenbergModel(
        n=2, phases=np.array([math.pi / 2, math.pi / 2]), freqs=np.zeros(2))
    scheme = schemes.load_scheme("CF4-2")
    control_defect = propagators.spectral_distance(
        propagators.trotterized_cfqm_step(scheme, control, 0.3, 0.4),
        propagators.cfqm_step(scheme, control, 0.3, 0.4))
    _verdict(7, violations == 0 and control_defect < 1e-12,
             f"{count} non-split pairs, worst defect/bound {worst:.2e}, "
             f"{violations} violations; commuting control defect "
             f"{control_defect:.1e}")


def test_criterion_08_planner_scaling_exponents():
    """Cost-model scaling against the advertised asymptotic exponents.

    The time fit passes for every scheme.  The error fit is expected to
    fail for CF4-2 and CF4-3 (measured ~ -0.272 / -0.268 against the
    advertised -0.25 +- 5%): their per-step budget is increasingly spent on
    the quadrature term, whose g >= 1 columns carry an explicit 1/h**g
    weight, so the effective per-step order drifts from 2s+1 toward 2s+1-g
    and the fitted exponent drifts from -1/(2s) toward -1/(2s-...).  Over
    the pinned window the quadrature share of the CF4-2 budget grows from
    9% to 69%, and the exponent depends only on the r(eps) curve, so no
    constant-factor choice can mask it.  The bound evaluation is faithful
    to the advertised remainder forms; the criterion is kept red rather
    than widening the tolerance.
    """
    t_start = time.perf_counter()
    mb = ModelBounds(c=1.0, n=128)
    time_grid = [2.0 ** k for k in range(6, 17)]
    eps_grid = [10.0 ** -k for k in range(2, 8)]
    bad = []
    for scheme_id in SCHEME_IDS:
        scheme = schemes.load_scheme(scheme_id)
        t_target = 1.0 + 1.0 / (2 * scheme.s)
        costs = [plan(scheme, mb, t, 1e-3).exponentials for t in time_grid]
        t_slope = np.polyfit(np.log(time_grid), np.log(costs), 1)[0]
        if abs(t_slope - t_target) > 0.05 * t_target:
            bad.append(f"{scheme_id} T-fit {t_slope:.4f} vs {t_target:.4f}")
        e_target = -1.0 / (2 * scheme.s)
        costs = [plan(scheme, mb, 1024.0, e).exponentials for e in eps_grid]
        e_slope = np.polyfit(np.log(eps_grid), np.log(costs), 1)[0]
        if abs(e_slope - e_target) > 0.05 * abs(e_target):
            bad.append(f"{scheme_id} eps-fit {e_slope:.4f} vs {e_target:.4f}")
    elapsed = time.perf_counter() - t_start
    _verdict(8, not bad and elapsed < 120.0,
             f"{elapsed:.1f}s (cap 120s); " + ("all fits within 5%" if not bad
             else "out of band: " + "; ".join(bad)
             + " [known deviation, see test docstring]"))


def test_criterion_09_cost_comparison_properties():
    mb = ModelBounds(c=1.0, n=128)
    p = plan(schemes.load_scheme("CF4-2"), mb, float(2 ** 16), 1e-3)
    ratio = p.suzuki_exponentials / p.exponentials
    dominants = []
    for nn in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
        pn = plan(schemes.load_scheme("CF4-2"), ModelBounds(c=1.0, n=nn),
                  float(nn), 1e-3)
        b = pn.breakdown
        parts = {"magnus_taylor": b.magnus_taylor,
                 "cfqm_taylor": b.cfqm_taylor,
                 "quadrature": b.quadrature, "trotter": b.trotter}
        dominants.append(max(parts, key=parts.get))
    switch_ok = (dominants[0] == "trotter"
                 and dominants[-1] in ("magnus_taylor", "cfqm_taylor")
                 and len(set(dominants)) > 1)
    _verdict(9, ratio >= 5.0 and switch_ok,
             f"Suzuki/CFQM exponential ratio {ratio:.1f} (need >= 5); n=T "
             f"dominant component {dominants[0]} -> {dominants[-1]}")


def test_criterion_10_sweep_determinism(tmp_path):
    args = dict(total_time=None, epsilon=1e-3, n=None)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        planner.sweep("spins", [16, 64, 256], list(SCHEME_IDS), out, **args)
    same = out_a.read_bytes() == out_b.read_bytes()
    _verdict(10, same, f"two identical sweeps, byte-identical={same}, "
             f"{out_a.stat().st_size} bytes")
