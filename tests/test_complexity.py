from fractions import Fraction

import pytest

from krrapsp import Cgrrf, KrrApsp, KrrParams, Nlms, Rls, SysIdConfig, SysIdScenario
from krrapsp import complexity as cx
from krrapsp.filters import _basis_build_charge


class TestClosedForms:
    @pytest.mark.parametrize("n", [31, 50, 100])
    def test_worked_update_shares(self, n):
        # single-processor filter-update share at D=5, m=10, r=1, q=5
        assert cx.krr_update_single(n, 5, 5, 1, 10) == 7 * n + 152
        # per-processor share, same parameters, any q
        assert cx.krr_update_multi(n, 5, 1, 10) == 5 * n + 40

    @pytest.mark.parametrize("n", [31, 50, 100])
    def test_baseline_rows(self, n):
        assert cx.nlms_count(n) == 3 * n + 2
        assert cx.rls_count(n) == 4 * n * n + 4 * n + 1
        d, m = 5, 10
        expected = (Fraction((d - 1) * n * n, m)
                    + (Fraction(5 * d - 4, m) + 4) * n + 2 * (d - 1))
        assert cx.cgrrf_count(n, d, m) == expected

    @pytest.mark.parametrize("n", [31, 50, 100])
    def test_krr_total_rows(self, n):
        d, q, r, m = 5, 5, 1, 10
        single = (Fraction((d - 1) * n * n, m)
                  + (Fraction(5 * d - 4, m) + 4) * n
                  + cx.alpha(q, r, m) * d * n
                  + 2 * (d - 1) + (4 * q + 2 * r) * d + (r + 7) * q + 2)
        assert cx.krr_single_count(n, d, q, r, m) == single
        multi = (Fraction((d - 1) * n * n, m)
                 + (Fraction(5 * d - 4, m) + 4) * n
                 + cx.beta(r, m) * d * n
                 + 2 * (d - 1) + (2 * r + 4) * d + r + 9)
        assert cx.krr_multi_count(n, d, r, m) == multi

    def test_alpha_beta_exact_rationals(self, rng):
        for _ in range(20):
            q = int(rng.integers(1, 12))
            r = int(rng.integers(1, 6))
            m = int(rng.integers(1, 40))
            assert cx.alpha(q, r, m) == Fraction(q + r + m - 2, m)
            assert cx.beta(r, m) == Fraction(r + m - 1, m)
            assert cx.alpha(q, r, m) >= 1
            assert cx.beta(r, m) >= 1

    def test_dispatch(self):
        assert cx.count("nlms", 50) == 152
        assert cx.count("krr-apsp", 50, rank=5, q=5, r=1, m=10,
                        q_processors=True) == cx.krr_multi_count(50, 5, 1, 10)
        with pytest.raises(ValueError):
            cx.count("mswf", 10)


class TestInstrumentedCounters:
    def test_nlms_counter_matches_row_exactly(self, rng):
        n = 31
        filt = Nlms(n, step_size=0.5)
        for _ in range(50):
            out = filt.step(rng.standard_normal(n), float(rng.standard_normal()))
            assert out.mults == cx.nlms_count(n)

    def test_rls_counter_charges_the_step(self, rng):
        # what the step performs; the paper's form also counts v^T P and one
        # reciprocal (COUNTER_NOTES)
        n = 9
        filt = Rls(n)
        for k in range(1, 4):
            out = filt.step(rng.standard_normal(n), float(rng.standard_normal()))
            assert out.mults == 3 * n * n + 4 * n == cx.rls_count(n) - n * n - 1
            assert filt.mult_totals["filter"] == k * out.mults

    def test_windowed_average_within_documented_slack(self):
        # forced updates (rho=0), r=1: the m-aligned window average of the
        # recurring counts plus the amortized build charge must sit within
        # +/-(q+r) of the printed closed form; the residual gap is the
        # unamortized 2(D-1) scalar share documented in COUNTER_NOTES
        n, d, q, r, m = 24, 3, 4, 1, 10
        params = KrrParams(rank=d, projections=q, error_dim=r, rho=0.0,
                           refresh_period=m, step_size=0.4)
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=10.0, seed=13))
        per_step = []
        builds = []
        for s in scen.samples(200):
            prev = filt.build_count
            out = filt.step(s.u, s.d)
            per_step.append(out.mults)
            builds.append(int(filt.build_count != prev))
        closed = float(cx.krr_single_count(n, d, q, r, m))
        charge = _basis_build_charge(d, n)
        # pick m-aligned windows that each contain exactly one refresh
        start = 120
        window = per_step[start:start + m]
        build_count = sum(builds[start:start + m])
        assert build_count == 1
        average = (sum(window) + build_count * charge) / m
        assert abs(average - closed) <= q + r

    @pytest.mark.parametrize("mode, stats", [("toeplitz", 4), ("fullsym", None)])
    def test_cgrrf_windowed_count_against_closed_form(self, mode, stats):
        # the m-aligned window average of the recurring counts plus the
        # amortized solve charge, against cgrrf_count: the counter also
        # charges the output h . u (N), and the closed form keeps the 2(D-1)
        # scalar term unamortized, a gap of N - 2(D-1)(m-1)/m (COUNTER_NOTES);
        # full statistics cost N^2 + 3N per step instead of 4N
        n, d, m = 24, 3, 10
        filt = Cgrrf(n, rank=d, refresh_period=m, forgetting=0.999, mode=mode)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=10.0, seed=13))
        per_step, solves = [], []
        for s in scen.samples(200):
            prev = filt.mult_totals["basis"]
            per_step.append(filt.step(s.u, s.d).mults)
            solves.append(int(filt.mult_totals["basis"] != prev))
        stats_charge = 4 * n if stats else n * n + 3 * n
        assert set(per_step) == {stats_charge + n}
        start = 120
        assert sum(solves[start:start + m]) == 1
        average = Fraction(sum(per_step[start:start + m]) + _basis_build_charge(d, n), m)
        gap = n - Fraction(2 * (d - 1) * (m - 1), m) + stats_charge - 4 * n
        assert average - cx.cgrrf_count(n, d, m) == gap
        # every solve is charged: the first one at step N - 1, then one per
        # later refresh step (k = 1 mod m)
        assert sum(solves) == 1 + len([k for k in range(n, 200) if k % m == 1])
        assert filt.mult_totals["basis"] == sum(solves) * _basis_build_charge(d, n)

    def test_filter_update_share_exact_over_window(self):
        # sharper identity: stats+transform+filter categories reproduce
        # 4N + alpha*D*N + (4q+2r)D + (r+7)q + 2 exactly at r=1
        n, d, q, r, m = 24, 3, 4, 1, 10
        params = KrrParams(rank=d, projections=q, error_dim=r, rho=0.0,
                           refresh_period=m, step_size=0.4)
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=10.0, seed=13))
        samples = list(scen.samples(200))
        for s in samples[:120]:
            filt.step(s.u, s.d)
        window_total = 0
        for s in samples[120:120 + m]:
            window_total += filt.step(s.u, s.d).mults
        share = float(4 * n + cx.krr_update_single(n, d, q, r, m))
        assert window_total == share * m


def test_counter_notes_present():
    assert "cost model" in cx.COUNTER_NOTES.lower()

