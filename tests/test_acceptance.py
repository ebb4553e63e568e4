"""Acceptance suite: one test per published-results criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on failure)
and asserts the criterion at its stated tolerance.  Reference values and
tolerance bands are fixed here, not tuned: resource rows within a factor of
2, time rows within a factor of 3 (the timing composition is a documented
model, so these are order-of-magnitude checks by design).
"""
import math
import time

import numpy as np
import pytest

from qrepeater import maps
from qrepeater import oracle as orc
from qrepeater.engine import (
    ProtocolConfig,
    optimize_working_fidelity,
    simulate,
)
from qrepeater.errors import AuxPurificationError
from qrepeater.states import NoiseParams, WernerState

NOISE_0995 = NoiseParams.uniform(0.995)
PERFECT = NoiseParams()

# Scheme C needs elementary pairs a little above the maintained fidelity:
# pumping with pairs created at exactly 0.96 has its attractor at ~0.9595.
SCHEME_C_F_INIT = 0.97

OPT_GRID = np.arange(0.86, 0.9951, 0.0025)


def _line(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst = max(orc.closed_form_deviations())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    assert _line("criterion 1 (oracle equivalence)", ok,
                 f"max deviation {worst:.2e} (<=1e-12), runtime {elapsed:.1f}s (<10s)")


def test_criterion_2_noiseless_reductions():
    worst = max(
        abs(maps.purify_bennett(float(f), PERFECT).out_fidelity
            - maps.eq_noiseless_bennett(float(f)))
        for f in np.linspace(0.25, 1.0, 100)
    )
    identity_ok = all(
        maps.connect_L(f, 1, NOISE_0995) == f for f in np.linspace(0.25, 1.0, 50)
    )
    points = maps.fixed_points(maps.bennett_map(PERFECT))
    fp_ok = abs(points.f_min - 0.5) <= 1e-10 and abs(points.f_max - 1.0) <= 1e-10
    ok = worst <= 1e-14 and identity_ok and fp_ok
    assert _line("criterion 2 (noiseless reductions)", ok,
                 f"map deviation {worst:.2e} (<=1e-14), identity at L=1 {identity_ok}, "
                 f"fixed points ({points.f_min:.12f}, {points.f_max:.12f})")


def test_criterion_3_gate_noise_regime():
    noise = NoiseParams(p1=1.0, p2=0.97, eta=1.0)
    points = maps.fixed_points(maps.bennett_map(noise))
    fp_ok = 0.5 < points.f_min < points.f_max < 1.0
    below = all(
        maps.connect_L(f, 3, noise) < f
        for f in np.arange(0.251, 0.9995, 0.001)
    )
    ok = fp_ok and below
    assert _line("criterion 3 (two fixed points, connection below diagonal)", ok,
                 f"f_min={points.f_min:.6f}, f_max={points.f_max:.6f}, "
                 f"connection below diagonal on (1/4,1): {below}")


def test_criterion_4_working_fidelity_optimum():
    start = time.monotonic()
    res_b = optimize_working_fidelity(2, NOISE_0995, "bennett", OPT_GRID, n_levels=10)
    res_d = optimize_working_fidelity(2, NOISE_0995, "deutsch", OPT_GRID, n_levels=10)
    elapsed = time.monotonic() - start
    ratio = res_b.m_min / res_d.m_min
    ok = (10.0 <= res_b.m_min <= 20.0 and 0.92 <= res_b.f_opt <= 0.96
          and 5.0 <= ratio <= 20.0 and elapsed < 30.0)
    assert _line("criterion 4 (copies vs working fidelity, 0.5% errors)", ok,
                 f"twirl-protocol min {res_b.m_min:.2f} at F={res_b.f_opt:.4f}, "
                 f"rotation-protocol min {res_d.m_min:.2f}, ratio {ratio:.2f}, "
                 f"runtime {elapsed:.1f}s (<30s)")


def test_criterion_5_one_and_three_percent_errors():
    res_1pc = optimize_working_fidelity(2, NoiseParams.uniform(0.99), "deutsch",
                                        OPT_GRID, n_levels=10)
    res_3pc = optimize_working_fidelity(2, NoiseParams.uniform(0.97), "deutsch",
                                        OPT_GRID, n_levels=10)
    ok = 3.0 <= res_1pc.m_min <= 8.0 and res_3pc.m_min > res_1pc.m_min
    assert _line("criterion 5 (1% and 3% error feasibility)", ok,
                 f"1% errors: min {res_1pc.m_min:.2f} in [3,8]; "
                 f"3% errors: feasible with min {res_3pc.m_min:.2f} (larger)")


def _table_config(scheme: str, n_segments: int) -> ProtocolConfig:
    f_init = SCHEME_C_F_INIT if scheme == "C" else 0.96
    return ProtocolConfig(n_segments=n_segments, length=2, scheme=scheme,
                          f_init=f_init, f_work=0.96, noise=NOISE_0995)


def test_criterion_6_published_resource_table():
    start = time.monotonic()
    checks = []

    rep_a = simulate(_table_config("A", 128))
    checks.append(("A/128 resources", rep_a.parallel_resources, 1.58e9,
                   1.58e9 / 2 <= rep_a.parallel_resources <= 1.58e9 * 2))
    rep_b7 = simulate(_table_config("B", 128))
    checks.append(("B/128 resources", rep_b7.parallel_resources, 329.0,
                   329.0 / 2 <= rep_b7.parallel_resources <= 329.0 * 2))
    rep_b10 = simulate(_table_config("B", 1024))
    checks.append(("B/1024 resources", rep_b10.parallel_resources, 4118.0,
                   4118.0 / 2 <= rep_b10.parallel_resources <= 4118.0 * 2))

    rep_c7 = simulate(_table_config("C", 128))
    rep_c10 = simulate(_table_config("C", 1024))
    c_ok = rep_c7.particles_per_node in (7, 8) and rep_c10.particles_per_node in (10, 11)
    checks.append(("C particles/node", float(rep_c7.particles_per_node), 8.0, c_ok))

    elapsed = time.monotonic() - start
    detail = "; ".join(
        f"{name} {value:.4g} vs {ref:.4g} ({'ok' if ok else 'OUT OF BAND'})"
        for name, value, ref, ok in checks
    )
    # context: the startup level (Werner elementary pairs lack the shape the
    # rotation protocol exploits) costs scheme B one extra purification step;
    # the steady per-level average reproduces the published values closely
    mbar_b = (rep_b10.parallel_resources / rep_b10.levels[0].avg_pairs) ** (1.0 / 9.0)
    print(f"  note: scheme B steady per-level copies {mbar_b:.4f} -> "
          f"{mbar_b ** 7:.4g} (128 segments), {mbar_b ** 10:.5g} (1024 segments)")
    ok = all(item[3] for item in checks) and elapsed < 60.0
    assert _line("criterion 6 (published resource table, factor 2)", ok,
                 detail + f"; runtime {elapsed:.1f}s (<60s)")


def test_criterion_7_published_time_table():
    rows = [
        ("B/128", _table_config("B", 128), 1.34e-2),
        ("B/1024", _table_config("B", 1024), 0.103),
        ("C/128", _table_config("C", 128), 0.241),
        ("C/1024", _table_config("C", 1024), 3.275),
    ]
    results = []
    for name, config, reference in rows:
        report = simulate(config)
        ratio = report.total_time / reference
        results.append((name, report.total_time, reference, 1 / 3 <= ratio <= 3.0))
    detail = "; ".join(
        f"{name} {value:.3g}s vs {ref:.3g}s ({'ok' if ok else 'OUT OF BAND'})"
        for name, value, ref, ok in results
    )
    ok = all(item[3] for item in results)
    assert _line("criterion 7 (published time table, factor 3)", ok, detail)


def test_criterion_8_aux_pair_condition():
    config = _table_config("C", 1024)
    report = simulate(config)  # rotation-based variant must hold at every level
    deutsch_ok = all(level.fidelity_achieved >= config.f_work for level in report.levels)

    bennett_failed_at = None
    try:
        simulate(config, protocol="bennett")
    except AuxPurificationError as exc:
        bennett_failed_at = exc.level
    ok = deutsch_ok and bennett_failed_at == 1
    assert _line("criterion 8 (constant-aux condition)", ok,
                 f"rotation protocol holds at all {report.n_levels} levels; "
                 f"twirl protocol fails at level {bennett_failed_at}")


def test_criterion_9_polynomial_scaling():
    log_n, log_r = [], []
    for n in range(4, 11):
        report = simulate(ProtocolConfig(
            n_segments=2 ** n, length=2, scheme="B", f_init=0.96, f_work=0.96,
            noise=NOISE_0995))
        log_n.append(n * math.log(2.0))
        log_r.append(math.log(report.elementary_pairs))
    slope = float(np.polyfit(log_n, log_r, 1)[0])

    report = simulate(ProtocolConfig(
        n_segments=2 ** 10, length=2, scheme="B", f_init=0.96, f_work=0.96,
        noise=NOISE_0995))
    mbar = report.parallel_resources ** (1.0 / 10.0)
    predicted = math.log(mbar, 2) + 1.0
    rel_dev = abs(slope - predicted) / predicted
    ok = math.isfinite(slope) and rel_dev <= 0.10
    assert _line("criterion 9 (polynomial resource scaling)", ok,
                 f"fitted exponent {slope:.4f} vs resource-law {predicted:.4f} "
                 f"({rel_dev:.1%} <= 10%)")
