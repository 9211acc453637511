import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krrapsp import (
    CdmaConfig,
    CdmaScenario,
    SysIdConfig,
    SysIdScenario,
    gold_family,
)
from krrapsp.scenarios import _CHUNK, GOLD_FAMILY_SIZE, GOLD_LENGTH, SNR_DB_FLOOR

from oracles import cdma_stream_per_step, sysid_noise_std, sysid_stream_per_step

COUNTS = (1, 63, 64, 65, 301)


def chunk_steps(scen, count, n):
    """The steps of ``scen.chunks(count)`` as ``(u, d, truth)``, each ``u`` copied.

    Checks the layout on the way: consecutive chunks of 1 to ``_CHUNK``
    steps, none of which spans the change.
    """
    steps = []
    change = scen.config.change_at
    for chunk in scen.chunks(count):
        m = len(chunk.d)
        assert chunk.start == len(steps) and 1 <= m <= _CHUNK
        assert chunk.u.shape == (m, n)
        assert change is None or not chunk.start < change < chunk.start + m
        steps += [(u.copy(), d, chunk.truth) for u, d in zip(chunk.u, chunk.d.tolist())]
    return steps


def float_bits(x):
    return np.float64(x).tobytes()


def assert_cdma_matches_oracle(config, count):
    scen = CdmaScenario(config)
    got = list(scen.samples(count))
    chunked = chunk_steps(CdmaScenario(config), count, GOLD_LENGTH)
    want = list(cdma_stream_per_step(scen, count))
    assert len(got) == len(chunked) == len(want) == count
    for k, (s, (cu, cd, truth), (u, d)) in enumerate(zip(got, chunked, want)):
        assert s.k == k
        assert s.u.tobytes() == cu.tobytes() == u.tobytes(), k
        assert float_bits(s.d) == float_bits(cd) == float_bits(d), k
        assert s.truth_bit == int(d) and truth is None, k


def assert_sysid_matches_oracle(config, count):
    scen = SysIdScenario(config)
    got = list(scen.samples(count))
    chunked = chunk_steps(SysIdScenario(config), count, config.n)
    want = list(sysid_stream_per_step(scen, count))
    assert len(got) == len(chunked) == len(want) == count
    for k, (s, (cu, cd, ctruth), (u, d, truth)) in enumerate(zip(got, chunked, want)):
        assert s.k == k
        assert s.u.tobytes() == cu.tobytes() == u.tobytes(), k
        assert float_bits(s.d) == float_bits(cd) == float_bits(d), k
        assert s.truth_h is truth and ctruth.tobytes() == truth.tobytes(), k


# step counts around the chunk length, and changes at the start, inside a
# chunk, on a chunk boundary and past the count
CHUNK_COUNTS = st.sampled_from([1, 63, 64, 65, 127, 128, 129, 150])
CHANGES = st.one_of(st.none(), st.sampled_from([0, 64, 128, 1000]), st.integers(1, 149))


@pytest.mark.parametrize("config", [SysIdConfig, CdmaConfig])
@pytest.mark.parametrize("snr_db", [3090.0, -3300.0])
def test_snr_without_a_finite_positive_ratio_rejected(config, snr_db):
    # 10 ** 309 overflows and 10 ** -330 underflows to zero
    with pytest.raises(ValueError, match="snr_db"):
        config(snr_db=snr_db)


@pytest.mark.parametrize("config", [SysIdConfig, CdmaConfig])
@pytest.mark.parametrize("snr_db", [-3080.0, SNR_DB_FLOOR - 1e-9])
def test_snr_below_the_floor_rejected(config, snr_db):
    # -3080 dB has a finite positive ratio, but its noise overflows the filters
    with pytest.raises(ValueError, match="snr_db"):
        config(snr_db=snr_db)


@pytest.mark.parametrize("snr_db", [3000.0, SNR_DB_FLOOR, 0.0, math.inf])
def test_extreme_but_representable_snr_accepted(snr_db):
    for config, scenario in ((SysIdConfig(n=4, snr_db=snr_db), SysIdScenario),
                             (CdmaConfig(users=2, snr_db=snr_db), CdmaScenario)):
        assert math.isfinite(scenario(config).noise_std)


class TestGoldFamily:
    def test_family_size_and_alphabet(self):
        fam = gold_family()
        assert fam.shape == (GOLD_FAMILY_SIZE, GOLD_LENGTH)
        assert set(np.unique(fam)) == {-1.0, 1.0}

    def test_zero_lag_autocorrelation(self):
        fam = gold_family()
        for row in fam:
            assert float(row @ row) == GOLD_LENGTH

    def test_three_valued_cross_correlation(self):
        fam = gold_family()
        values = set()
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                for lag in range(GOLD_LENGTH):
                    values.add(int(round(fam[i] @ np.roll(fam[j], lag))))
        assert values <= {-1, -9, 7}

    def test_computed_once_and_read_only(self):
        fam = gold_family()
        assert np.array_equal(gold_family(), fam)
        with pytest.raises(ValueError):
            fam[0, 0] = 0.0


class TestSysIdScenario:
    def test_deterministic_bitwise(self):
        cfg = SysIdConfig(n=12, snr_db=15.0, seed=77)
        a = list(SysIdScenario(cfg).samples(100))
        b = list(SysIdScenario(cfg).samples(100))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.u, sb.u)
            assert sa.d == sb.d

    def test_noiseless_flag_exact(self):
        cfg = SysIdConfig(n=10, snr_db=math.inf, seed=5)
        scen = SysIdScenario(cfg)
        for s in scen.samples(50):
            assert s.d == float(s.u @ scen.h_star)

    def test_unit_norm_system_and_fir(self):
        scen = SysIdScenario(SysIdConfig(n=20, seed=1))
        assert abs(np.linalg.norm(scen.h_star) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(scen.coloring_fir) - 1.0) <= 1e-12
        assert scen.coloring_fir.shape == (30,)

    def test_change_keeps_input_and_swaps_truth(self):
        base = SysIdConfig(n=8, snr_db=20.0, seed=9)
        changed = SysIdConfig(n=8, snr_db=20.0, change_at=30, seed=9)
        plain = list(SysIdScenario(base).samples(60))
        moved = list(SysIdScenario(changed).samples(60))
        for sp, sm in zip(plain, moved):
            assert np.array_equal(sp.u, sm.u)
        scen = SysIdScenario(changed)
        for s in scen.samples(60):
            if s.k < 30:
                assert np.array_equal(s.truth_h, scen.h_star)
            else:
                assert np.array_equal(s.truth_h, scen.h_star_post)

    def test_negate_change_mode(self):
        scen = SysIdScenario(SysIdConfig(n=8, change_at=10, seed=2))
        assert np.array_equal(scen.h_star_post, -scen.h_star)

    def test_fresh_change_mode(self):
        scen = SysIdScenario(SysIdConfig(n=8, change_at=10, change_mode="fresh",
                                         seed=2))
        assert abs(np.linalg.norm(scen.h_star_post) - 1.0) <= 1e-12
        assert not np.array_equal(scen.h_star_post, -scen.h_star)

    def test_realized_snr_aggregate(self):
        # per-seed power measurement carries the variance of a correlated
        # process; the law-of-large-numbers check averages across seeds
        target = 15.0
        realized = []
        for seed in range(10):
            scen = SysIdScenario(SysIdConfig(n=30, snr_db=target, seed=seed))
            z2 = n2 = 0.0
            for s in scen.samples(10000):
                z = float(s.u @ s.truth_h)
                z2 += z * z
                n2 += (s.d - z) ** 2
            realized.append(10.0 * math.log10(z2 / n2))
        assert abs(np.mean(realized) - target) <= 0.3
        # per-seed power measurements of a correlated process carry roughly
        # half a dB of standard deviation; this is only a sanity cap
        assert np.max(np.abs(np.array(realized) - target)) <= 2.0

    # frozen from the first verified run of this generator (seed 12345);
    # pins the RNG choice and substream layout
    GOLDEN_U0 = [-0.25104410828285234, -1.736322921097908,
                 0.3955566120204613, 0.5797575160630406]
    GOLDEN_D0 = 0.20491204909037858
    GOLDEN_U1 = [1.1566957829194129, -0.25104410828285234,
                 -1.736322921097908, 0.3955566120204613]
    GOLDEN_H = [0.8152127775267914, -0.22284861478867876,
                0.4936248787365155, -0.20518552906133852]

    def test_golden_pinned_samples(self):
        scen = SysIdScenario(SysIdConfig(n=4, snr_db=10.0, seed=12345))
        s0, s1 = list(scen.samples(2))
        assert np.allclose(s0.u, self.GOLDEN_U0, rtol=0, atol=1e-15)
        assert abs(s0.d - self.GOLDEN_D0) <= 1e-15
        assert np.allclose(s1.u, self.GOLDEN_U1, rtol=0, atol=1e-15)
        assert np.allclose(scen.h_star, self.GOLDEN_H, rtol=0, atol=1e-15)
        # the regressor is a sliding window of one underlying signal
        assert s1.u[1] == s0.u[0]

    @pytest.mark.parametrize("count", COUNTS)
    def test_chunked_stream_matches_oracle(self, count):
        assert_sysid_matches_oracle(SysIdConfig(n=12, snr_db=10.0, seed=count), count)

    @pytest.mark.parametrize("kwargs", [
        dict(change_at=0),
        dict(change_at=64),
        dict(change_at=100, change_mode="fresh"),
        dict(change_at=301),
        dict(snr_db=math.inf, change_at=130),
        dict(n=1, fir_len=1),  # nothing carries into the next chunk
        dict(n=50, fir_len=30),
    ], ids=["change0", "change64", "change100-fresh", "change-at-count",
            "noiseless", "no-carry", "n50"])
    def test_chunked_stream_matches_oracle_configs(self, kwargs):
        assert_sysid_matches_oracle(SysIdConfig(**{"n": 8, "seed": 3, **kwargs}), 301)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40),
           fir_len=st.integers(1, 40),
           change_at=st.one_of(st.none(), st.integers(0, 200)),
           change_mode=st.sampled_from(["negate", "fresh"]),
           snr_db=st.sampled_from([0.0, 15.0, math.inf]),
           count=st.integers(0, 200),
           seed=st.integers(0, 2 ** 32))
    def test_chunked_stream_property(self, n, fir_len, change_at, change_mode,
                                     snr_db, count, seed):
        cfg = SysIdConfig(n=n, fir_len=fir_len, change_at=change_at,
                          change_mode=change_mode, snr_db=snr_db, seed=seed)
        assert_sysid_matches_oracle(cfg, count)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 10, 50, 200]), count=CHUNK_COUNTS, change_at=CHANGES,
           snr_db=st.sampled_from([15.0, math.inf]), seed=st.integers(0, 2 ** 32))
    def test_chunks_property(self, n, count, change_at, snr_db, seed):
        cfg = SysIdConfig(n=n, snr_db=snr_db, change_at=change_at, change_mode="fresh",
                          seed=seed)
        assert_sysid_matches_oracle(cfg, count)

    def test_noiseless_chunk_outputs_are_the_window_dots(self):
        # at n = 10 a matmul over the strided windows, or one (m, n) @ (n,)
        # product, rounds differently from the dot of each copied window
        scen = SysIdScenario(SysIdConfig(n=10, snr_db=math.inf, change_at=70, seed=5))
        chunks = 0
        for chunk in scen.chunks(200):
            chunks += 1
            for u, d in zip(chunk.u, chunk.d.tolist()):
                assert d == float(u.copy() @ chunk.truth)
        assert chunks == 5  # cut at 70

    @pytest.mark.parametrize("n", [2, 50, 200])
    def test_noise_level_matches_the_window_loop(self, n):
        for seed in range(6):
            for snr_db in (15.0, 0.0):
                scen = SysIdScenario(SysIdConfig(n=n, snr_db=snr_db, seed=seed))
                assert scen.noise_std == sysid_noise_std(scen), (n, seed, snr_db)

    def test_lockstep_streams_hold_one_chunk(self):
        # the rank-sweep shape: 100 trials of 12000 samples advanced together
        scenarios = [SysIdScenario(SysIdConfig(n=50, seed=s)) for s in range(100)]
        tracemalloc.start()
        try:
            streams = [scen.samples(12000) for scen in scenarios]
            first = [next(stream) for stream in streams]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(first) == 100
        assert held < 2 ** 20, held

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SysIdConfig(n=0)
        with pytest.raises(ValueError):
            SysIdConfig(change_mode="swap")
        with pytest.raises(ValueError, match="change_at"):
            SysIdConfig(change_at=-5)
        SysIdConfig(change_at=0)

    @pytest.mark.parametrize("kwargs", [
        dict(n=2.5), dict(n=np.float64(8.0)), dict(fir_len=3.0), dict(fir_len=0),
        dict(change_at=70.5), dict(seed=1.5), dict(seed=-1), dict(seed="1"),
    ])
    def test_non_integral_counts_rejected(self, kwargs):
        # n=2.5 would fail later with a TypeError; seed=1.5 would run as seed 1
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SysIdConfig(**kwargs)

    def test_serialize_metadata(self):
        meta = SysIdScenario(SysIdConfig(n=8, snr_db=10.0, change_at=5, seed=2)).serialize()
        assert list(meta.items()) == [
            ("n", "8"), ("snr_db", "10.0"), ("fir_len", "30"), ("change_at", "5"),
            ("change_mode", "negate"), ("seed", "2"), ("kind", "sysid"),
            ("rng", "pcg64-seedsequence"), ("noise_std", "0.230592951884")]


class TestCdmaScenario:
    def test_user_count_bounds(self):
        with pytest.raises(ValueError):
            CdmaConfig(users=34)
        with pytest.raises(ValueError, match="users_post and change_at"):
            CdmaConfig(users=4, change_at=100)  # users_post missing
        with pytest.raises(ValueError, match="users_post and change_at"):
            CdmaConfig(users=4, users_post=3)  # no change would use it

    @pytest.mark.parametrize("name, kwargs", [
        ("users", dict(users=2.0)), ("users", dict(users=0)),
        ("users_post", dict(change_at=50, users_post=2.5)),
        ("users_post", dict(change_at=50, users_post=34)),
        ("change_at", dict(change_at=50.0, users_post=2)),
        ("seed", dict(seed=1.5)), ("seed", dict(seed=-1)),
    ])
    def test_non_integral_counts_rejected(self, name, kwargs):
        with pytest.raises(ValueError, match=name):
            CdmaConfig(**kwargs)

    def test_negative_change_at_rejected(self):
        # it would never switch, yet the CSV header would record it
        with pytest.raises(ValueError, match="change_at"):
            CdmaConfig(users=4, change_at=-5, users_post=2)
        CdmaConfig(users=4, change_at=0, users_post=2)

    @pytest.mark.parametrize("kwargs", [
        dict(snr_db=math.nan), dict(snr_db=-math.inf),
        dict(interferer_amplitude=math.nan), dict(interferer_amplitude=math.inf),
        dict(interferer_amplitude=0.0), dict(interferer_amplitude=-1.0),
    ])
    def test_invalid_floats(self, kwargs):
        # a NaN or -inf SNR would otherwise give a noiseless scenario
        with pytest.raises(ValueError):
            CdmaConfig(users=4, **kwargs)

    def test_deterministic_bitwise(self):
        cfg = CdmaConfig(users=5, snr_db=12.0, seed=4)
        a = list(CdmaScenario(cfg).samples(200))
        b = list(CdmaScenario(cfg).samples(200))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.u, sb.u)
            assert sa.d == sb.d

    def test_single_user_noiseless_matched_filter(self):
        cfg = CdmaConfig(users=1, snr_db=math.inf, seed=3)
        scen = CdmaScenario(cfg)
        for s in scen.samples(100):
            assert int(np.sign(float(scen.signature @ s.u))) == s.truth_bit
            assert s.d == float(s.truth_bit)

    def test_signature_unit_norm(self):
        scen = CdmaScenario(CdmaConfig(users=6, seed=8))
        assert abs(np.linalg.norm(scen.signature) - 1.0) <= 1e-12

    def test_interferers_straddle_symbols(self):
        scen = CdmaScenario(CdmaConfig(users=3, seed=5))
        for user in scen._pre_users[1:]:
            assert 1 <= user.delay <= GOLD_LENGTH - 1
            assert np.linalg.norm(user.head) > 0
            assert np.linalg.norm(user.tail) > 0
            total = float(user.head @ user.head + user.tail @ user.tail)
            assert abs(total - 1.0) <= 1e-12

    def test_change_event_swaps_interferers(self):
        cfg = CdmaConfig(users=4, snr_db=math.inf, change_at=50, users_post=2,
                         interferer_amplitude=2.0, seed=6)
        scen = CdmaScenario(cfg)
        samples = list(scen.samples(100))
        # desired user's code persists: matched filter output stays biased
        # toward the training bit in both phases
        agree = sum(int(np.sign(scen.signature @ s.u)) == s.truth_bit
                    for s in samples)
        assert agree >= 60

    def test_serialize_metadata(self):
        scen = CdmaScenario(CdmaConfig(users=4, change_at=10, users_post=2, seed=1))
        meta = scen.serialize()
        assert meta["kind"] == "cdma"
        assert meta["asynchrony"] == "chip-offset-partial-symbols"
        assert meta["rng"] == "pcg64-seedsequence"
        assert list(meta) == ["users", "snr_db", "interferer_amplitude", "change_at",
                              "users_post", "seed", "kind", "rng", "asynchrony",
                              "noise_std"]
        assert meta["noise_std"] == "0.177827941004"

    @pytest.mark.parametrize("count", COUNTS)
    def test_chunked_stream_matches_oracle(self, count):
        cfg = CdmaConfig(users=4, snr_db=10.0, interferer_amplitude=2.0, seed=count)
        assert_cdma_matches_oracle(cfg, count)

    @pytest.mark.parametrize("kwargs", [
        dict(change_at=0, users_post=3),
        dict(change_at=64, users_post=5),
        dict(change_at=100, users_post=2),
        dict(change_at=301, users_post=2),
        dict(change_at=400, users_post=2),
        dict(change_at=130, users_post=1),
        dict(users=1),
        dict(users=33, change_at=70, users_post=33),
        dict(snr_db=math.inf, change_at=100, users_post=3),
    ], ids=["change0", "change64", "change100", "change-at-count",
            "change-past-count", "post1", "single-user", "users33", "noiseless"])
    def test_chunked_stream_matches_oracle_configs(self, kwargs):
        cfg = CdmaConfig(**{"users": 4, "snr_db": 10.0, "seed": 11, **kwargs})
        assert_cdma_matches_oracle(cfg, 301)

    @settings(max_examples=40, deadline=None)
    @given(users=st.integers(1, GOLD_FAMILY_SIZE),
           change_at=st.one_of(st.none(), st.integers(0, 200)),
           users_post=st.integers(1, GOLD_FAMILY_SIZE),
           snr_db=st.sampled_from([0.0, 12.5, math.inf]),
           amplitude=st.floats(0.1, 4.0),
           count=st.integers(0, 200),
           seed=st.integers(0, 2 ** 32))
    def test_chunked_stream_property(self, users, change_at, users_post, snr_db,
                                     amplitude, count, seed):
        cfg = CdmaConfig(users=users, snr_db=snr_db, interferer_amplitude=amplitude,
                         change_at=change_at,
                         users_post=None if change_at is None else users_post,
                         seed=seed)
        assert_cdma_matches_oracle(cfg, count)

    @settings(max_examples=40, deadline=None)
    @given(users=st.integers(1, GOLD_FAMILY_SIZE), count=CHUNK_COUNTS, change_at=CHANGES,
           users_post=st.integers(1, GOLD_FAMILY_SIZE),
           snr_db=st.sampled_from([10.0, math.inf]), seed=st.integers(0, 2 ** 32))
    def test_chunks_property(self, users, count, change_at, users_post, snr_db, seed):
        cfg = CdmaConfig(users=users, snr_db=snr_db, change_at=change_at,
                         users_post=None if change_at is None else users_post, seed=seed)
        assert_cdma_matches_oracle(cfg, count)

    # frozen from the per-step generator this chunked one replaced (seed
    # 12345, change at bit 2): pins the substream layout, the bit order
    # across users and the previous-bit carry on both sides of the change
    GOLDEN = [
        (1.0, [-0.22367316421705513, 0.7954723188322059,
               0.4114318110208587, -0.02070425834325998]),
        (1.0, [-0.20817450846285795, 0.3926598970766134,
               0.19070318016536542, 0.1912331998955069]),
        (1.0, [-0.2458753846642277, -0.2986693091099394,
               0.14781650081019418, 0.6810590720652806]),
        (-1.0, [0.4524333439861084, -0.6445263844259741,
                0.44838213611896466, 0.4751086762197116]),
    ]

    def test_golden_pinned_samples(self):
        scen = CdmaScenario(CdmaConfig(users=3, snr_db=10.0, change_at=2,
                                       users_post=2, seed=12345))
        got = [(s.d, s.u[:4].tolist()) for s in scen.samples(4)]
        assert got == self.GOLDEN



# the change at 70 lies inside the second chunk; sysid draws a fresh system
REPLAY_CONFIGS = [SysIdConfig(n=12, change_at=70, change_mode="fresh", seed=3),
                  CdmaConfig(users=4, change_at=70, users_post=3, seed=3)]


def make_scenario(config):
    return (SysIdScenario if isinstance(config, SysIdConfig) else CdmaScenario)(config)


def chunk_bytes(chunks):
    # each chunk's u is read before the next one overwrites it
    return [(c.start, c.u.tobytes(), c.d.tobytes(), None if c.truth is None else c.truth.tobytes())
            for c in chunks]


def sample_bytes(samples):
    return [(s.k, s.u.tobytes(), float_bits(s.d), s.truth_bit) for s in samples]


@pytest.mark.parametrize("config", REPLAY_CONFIGS, ids=["sysid", "cdma"])
def test_chunks_replay_from_step_0(config):
    fresh = chunk_bytes(make_scenario(config).chunks(150))
    scen = make_scenario(config)
    assert chunk_bytes(scen.chunks(150)) == fresh
    assert chunk_bytes(scen.chunks(150)) == fresh


@pytest.mark.parametrize("config", REPLAY_CONFIGS, ids=["sysid", "cdma"])
def test_samples_after_a_partly_read_stream_start_at_step_0(config):
    scen = make_scenario(config)
    partial = scen.chunks(150)
    next(partial)
    next(partial)  # up to the change at 70
    got = sample_bytes(scen.samples(150))
    assert got == sample_bytes(make_scenario(config).samples(150))
    assert [k for k, *_ in got] == list(range(150))


@pytest.mark.parametrize("stream", ["chunks", "samples"])
@pytest.mark.parametrize("count", [-3, -1, 2.5, "3"])
@pytest.mark.parametrize("config", REPLAY_CONFIGS, ids=["sysid", "cdma"])
def test_bad_count_rejected_before_any_draw(config, count, stream):
    # rejected before the stream restores or draws: an open stream reads on undisturbed
    scen = make_scenario(config)
    partial = scen.chunks(150)
    head = chunk_bytes([next(partial)])
    with pytest.raises(ValueError, match="count"):
        next(getattr(scen, stream)(count))
    assert head + chunk_bytes(partial) == chunk_bytes(make_scenario(config).chunks(150))
