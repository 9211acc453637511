"""Deterministic, seedable experiment scenario generators.

Two families: colored-input system identification (an unknown FIR system
observed through additive noise) and CDMA multiple-access interference
suppression with Gold spreading codes. Both support a mid-run environment
change and derive every random quantity from named substreams of a single
64-bit seed, so identical seeds give bitwise-identical streams regardless
of how many samples are drawn or on which thread.

RNG contract: all draws come from ``numpy.random.Generator(PCG64(child))``
where ``child`` is obtained by spawning ``SeedSequence(seed)``. Substream
order (sysid): unknown system, coloring filter, input signal, noise,
post-change system, SNR calibration. Substream order (cdma): code
selection, chip offsets, data bits, noise, post-change selection.

Each scenario has one stream, ``chunks(count)``, and its per-step view
``samples(count)``, both written once in the private base ``_Stream``
around the scenario's own chunk loop ``_chunks``, the only place where it
draws and builds samples. The harness and ``verify``'s static runs read
only ``chunks()``. ``samples()`` and ``StreamSample`` stay public as the
single-stream view: one step with its own ``u`` and truth, which is what a
caller stepping one filter by hand reads (the README's library example). A
chunk is up to ``_CHUNK`` consecutive steps: ``(m, n)`` regressors,
``(m,)`` outputs and the truth they share. A chunk ends at ``change_at``,
so every step of a chunk has the same truth. Each substream is drawn in
blocks, one per chunk (sysid: one per ``_CHUNK`` steps of a fixed grid, so
a chunk that ends at ``change_at`` shares its block with the next). A
block draw returns the values of the per-step draws it replaces and leaves
the generator in the same state, and the chunk arithmetic rounds every
entry as the per-step arithmetic does (CDMA: one exact BLAS product per
chunk, see ``CdmaScenario._chunks``), so the samples are those of a
step-by-step generator and the RNG contract above is unchanged. A stream
therefore draws up to one chunk ahead of what it has yielded. Every call
replays the stream from step 0: a scenario saves the states of its stream
generators when it is built (CDMA: after the interferers' first bits) and
restores them into the same generators before it draws, so one scenario
serves every pass over its trial; a stream opened while another is still
being read takes the generators over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import check_int

GOLD_LENGTH = 31
GOLD_FAMILY_SIZE = 33

# steps per block draw of a scenario stream: enough to amortize the
# per-call cost of the draws, few enough that the streams of a lockstep
# ensemble (one chunk each) stay small
_CHUNK = 64
# the lowest finite SNR accepted: the noise is about 10 ** (-snr_db / 20)
# times the signal, and its fourth power (a squared error times a
# statistics entry) must stay far inside the float range
SNR_DB_FLOOR = -300.0


class StreamSample(NamedTuple):
    """One observation pair together with the hidden ground truth."""

    k: int
    u: np.ndarray
    d: float
    truth_h: np.ndarray | None = None
    truth_bit: int | None = None


class StreamChunk(NamedTuple):
    """Steps ``start, start + 1, ...`` of a stream.

    ``u`` holds the ``(m, n)`` regressors, a view of the stream's buffer
    that the next chunk overwrites; ``d`` the ``(m,)`` outputs; ``truth``
    the system of every step (None for CDMA, whose truth is ``d``).
    """

    start: int
    u: np.ndarray
    d: np.ndarray
    truth: np.ndarray | None = None


def _spawn(seed: int, count: int):
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _check_snr_db(snr_db: float) -> None:
    """Reject an SNR below ``SNR_DB_FLOOR`` or without a finite positive linear ratio.

    +inf means no noise.
    """
    if snr_db == math.inf:
        return
    if snr_db < SNR_DB_FLOOR:
        raise ValueError(f"snr_db must be +inf or at least {SNR_DB_FLOOR} dB, got {snr_db}")
    try:
        ratio = 10.0 ** (snr_db / 10.0)  # NaN for NaN, 0 for -inf
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"snr_db must be +inf or have a finite positive linear ratio, "
                         f"got {snr_db}")


def config_items(cfg) -> dict:
    """A scenario config's fields as strings, in field order; None reads as ""."""
    out = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        out[f.name] = "" if val is None else str(val)
    return out


class _Stream:
    """A replayable stream: a scenario's ``_chunks`` loop from its ``_saved`` generator states."""

    def chunks(self, count: int, buffer=None) -> Iterator[StreamChunk]:
        """The first ``count`` (at least 0) steps in chunks, replayed from step 0 at every call.

        They are written into ``buffer``, a pair from ``chunk_buffer`` (by
        default one of the stream's own).
        """
        count = check_int(count, "count", 0)
        for g, state in self._saved:
            g.bit_generator.state = state
        yield from self._chunks(count, self.chunk_buffer() if buffer is None else buffer)

    def samples(self, count: int) -> Iterator[StreamSample]:
        """The steps of :meth:`chunks` one at a time, each with its own ``u`` (CDMA: bit ``d``)."""
        for chunk in self.chunks(count):
            for t, d in enumerate(chunk.d.tolist()):
                yield StreamSample(chunk.start + t, chunk.u[t].copy(), d, chunk.truth,
                                   None if chunk.truth is not None else int(d))


# ---------------------------------------------------------------------------
# system identification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SysIdConfig:
    """Colored-input system identification setting.

    The unknown system is a random unit-norm vector of length ``n``; the
    input is white Gaussian noise shaped by a random unit-energy FIR
    filter of length ``fir_len`` (weakly correlated input). ``snr_db``
    fixes the ratio of clean output power to noise power; ``math.inf``
    disables the noise; a finite ``snr_db`` must be at least
    ``SNR_DB_FLOOR`` (-300 dB) and give a finite positive
    ``10 ** (snr_db / 10)``.

    At ``change_at`` (``>= 0``) the unknown system is replaced while the input
    statistics (and the noise level) stay untouched, so only the
    cross-correlation vector changes. ``change_mode`` selects the
    replacement: ``"negate"`` flips the system's sign, the worst case for
    stale-statistics trackers since the exponentially weighted
    cross-correlation estimate must decay through zero while the Krylov
    geometry itself stays valid; ``"fresh"`` draws an independent random
    unit-norm system.
    """

    n: int = 50
    snr_db: float = 15.0
    fir_len: int = 30
    change_at: int | None = None
    change_mode: str = "negate"
    seed: int = 0

    def __post_init__(self):
        check_int(self.n, "n")
        check_int(self.fir_len, "fir_len")
        _check_snr_db(self.snr_db)
        if self.change_at is not None:
            check_int(self.change_at, "change_at", 0)
        if self.change_mode not in ("negate", "fresh"):
            raise ValueError("change_mode must be negate or fresh")
        check_int(self.seed, "seed", 0)


class SysIdScenario(_Stream):
    """Sample stream for a system identification experiment.

    Noise power is calibrated against the clean output power measured on a
    dedicated pre-roll of ``10 * n`` samples, so the realized SNR matches
    the target. The regressor window always contains real signal history
    (the input stream starts ``n - 1`` samples early).
    """

    constants = {"rng": "pcg64-seedsequence"}  # provenance, the same for every config

    def __init__(self, config: SysIdConfig):
        self.config = config
        self.n = n = config.n
        (rng_h, rng_fir, self._rng_input, self._rng_noise, rng_post,
         rng_calib) = _spawn(config.seed, 6)
        self._saved = [(g, g.bit_generator.state) for g in (self._rng_input, self._rng_noise)]

        h = rng_h.standard_normal(n)
        self.h_star = h / np.linalg.norm(h)
        self.h_star.flags.writeable = False

        fir = rng_fir.standard_normal(config.fir_len)
        self.coloring_fir = fir / np.linalg.norm(fir)
        self.coloring_fir.flags.writeable = False

        if config.change_at is not None:
            if config.change_mode == "negate":
                hp = -self.h_star
            else:
                hp = rng_post.standard_normal(n)
                hp = hp / np.linalg.norm(hp)
            self.h_star_post = hp.copy()
            self.h_star_post.flags.writeable = False
        else:
            self.h_star_post = None

        if config.snr_db == math.inf:
            self.noise_std = 0.0
        else:
            # the clean outputs of the 10 n calibration windows, squared and added in order
            white = rng_calib.standard_normal(10 * n + n - 1 + config.fir_len - 1)
            calib = np.convolve(white, self.coloring_fir, mode="valid")
            z = sliding_window_view(calib, n)[:, ::-1] @ self.h_star
            power = float(np.add.accumulate(z * z)[-1]) / len(z)
            self.noise_std = math.sqrt(power / (10.0 ** (config.snr_db / 10.0)))

    def chunk_buffer(self, *rows: int):
        """A buffer for :meth:`chunks`, stacked over ``rows``, and its regressor view.

        The buffer holds one chunk's colored input, ``_CHUNK + n - 1``
        samples; the view is its ``(*rows, _CHUNK, n)`` reversed windows.
        """
        buf = np.empty(rows + (_CHUNK + self.n - 1,))
        return buf, sliding_window_view(buf, self.n, axis=-1)[..., ::-1]

    def _chunks(self, count: int, buffer):
        """The chunks of :meth:`chunks`, from the restored generators.

        Input and noise are drawn every ``_CHUNK`` steps into buffers the
        stream keeps. Each draw's colored input comes from its white
        samples plus the last ``n - 1 + fir_len - 1`` white samples before
        it, which its first windows and filter outputs reach back to. A
        chunk's input is written into ``buffer``.
        """
        n, change = self.n, self.config.change_at
        carry = n - 1 + self.config.fir_len - 1
        buf, windows = buffer
        white = np.empty(carry + _CHUNK)
        noise = np.zeros(_CHUNK)
        self._rng_input.standard_normal(out=white[:carry])
        for start in range(0, count, _CHUNK):
            m = min(_CHUNK, count - start)
            if start:  # every chunk before this one was a full one
                white[:carry] = white[_CHUNK:]
            self._rng_input.standard_normal(out=white[carry:carry + m])
            x = np.convolve(white[:carry + m], self.coloring_fir, mode="valid")
            if self.noise_std > 0.0:
                self._rng_noise.standard_normal(out=noise[:m])
                noise[:m] *= self.noise_std
            cuts = [0, m]
            if change is not None and start < change < start + m:
                cuts.insert(1, change - start)
            for a, b in zip(cuts, cuts[1:]):
                buf[:b - a + n - 1] = x[a:b + n - 1]
                truth = self.h_star if change is None or start + a < change else self.h_star_post
                # each row's dot over a contiguous copy (linalg's table), not kept while suspended
                d = np.vecdot(np.ascontiguousarray(windows[:b - a]), truth) + noise[a:b]
                yield StreamChunk(start + a, windows[:b - a], d, truth)


# ---------------------------------------------------------------------------
# CDMA interference suppression
# ---------------------------------------------------------------------------


def _msequence(poly_exponents, length: int = GOLD_LENGTH) -> np.ndarray:
    """Binary m-sequence with the given primitive characteristic polynomial.

    ``poly_exponents`` lists every exponent with a nonzero coefficient,
    including the degree itself, e.g. ``(5, 2, 0)`` for ``x^5 + x^2 + 1``.
    The recurrence is ``s[n+deg] = XOR of s[n+t]`` over the lower
    exponents ``t``.
    """
    degree = max(poly_exponents)
    lower = [t for t in poly_exponents if t != degree]
    state = [1] * degree  # state[i] holds s[n + degree - 1 - i]
    out = np.empty(length, dtype=int)
    for i in range(length):
        out[i] = state[-1]
        new = 0
        for t in lower:
            new ^= state[degree - 1 - t]
        state = [new] + state[:-1]
    return out


@functools.cache
def gold_family() -> np.ndarray:
    """The 33 length-31 Gold sequences as rows of a read-only +/-1 matrix.

    Built from the preferred pair of degree-5 feedback polynomials with
    octal tap masks 45 and 75; the family is the pair itself plus the 31
    cyclic-shift XOR combinations, mapped 0 -> +1 and 1 -> -1. Every pair
    of distinct members has periodic cross-correlation confined to
    {-1, -9, 7}. Computed once; every call returns the same array.
    """
    u = _msequence((5, 2, 0))
    v = _msequence((5, 4, 3, 2, 0))
    rows = [u, v]
    for shift in range(GOLD_LENGTH):
        rows.append(np.bitwise_xor(u, np.roll(v, shift)))
    family = (1 - 2 * np.array(rows)).astype(float)
    family.flags.writeable = False
    return family


@dataclass(frozen=True)
class CdmaConfig:
    """Chip-synchronous, code-asynchronous CDMA interference suppression.

    ``users`` spreading codes are drawn without replacement from the
    length-31 Gold family and scaled to unit norm. The desired user is
    symbol-synchronous with the receiver window; every interferer has a
    fixed nonzero chip offset, so each of its symbols straddles the window
    boundary and it contributes two partial signatures (previous-bit tail,
    current-bit head) per observation. The desired user has amplitude one
    and every interferer amplitude ``interferer_amplitude`` (finite,
    positive). ``snr_db`` is the ratio of the desired user's received power
    to the per-chip noise variance; ``math.inf`` disables the noise, and a
    finite ``snr_db`` must be at least ``SNR_DB_FLOOR`` (-300 dB) and give
    a finite positive ``10 ** (snr_db / 10)``.
    At ``change_at`` (``>= 0``) every interferer leaves and
    ``users_post - 1`` fresh interferers (new codes, offsets, and bit
    streams) join; the desired user is untouched. ``users_post`` goes with
    ``change_at`` only.
    """

    users: int = 8
    snr_db: float = 15.0
    interferer_amplitude: float = 1.0
    change_at: int | None = None
    users_post: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("users", "users_post"):
            count = getattr(self, name)
            if count is not None and not 1 <= check_int(count, name) <= GOLD_FAMILY_SIZE:
                raise ValueError(f"{name} must lie in 1..{GOLD_FAMILY_SIZE}")
        if self.change_at is not None:
            check_int(self.change_at, "change_at", 0)
        if (self.users_post is None) != (self.change_at is None):
            raise ValueError("users_post and change_at must be given together")
        _check_snr_db(self.snr_db)
        if not 0.0 < self.interferer_amplitude < math.inf:
            raise ValueError("interferer_amplitude must be finite and positive")
        check_int(self.seed, "seed", 0)


class _CdmaUser(NamedTuple):
    """One active transmitter: amplitude, partial signatures, first previous bit.

    Chips ``[0, delay)`` of the window carry the previous symbol's last
    chips (``tail``), chips ``[delay, n)`` the current symbol's first chips
    (``head``). ``prev_bit`` is the symbol before the user's first one in
    the stream.
    """

    amplitude: float
    delay: int
    tail: np.ndarray
    head: np.ndarray
    prev_bit: int

    @classmethod
    def from_code(cls, code: np.ndarray, delay: int, amplitude: float, prev_bit: int):
        n = code.shape[0]
        unit = code / np.linalg.norm(code)
        tail = np.concatenate((unit[n - delay:], np.zeros(n - delay)))
        head = np.concatenate((np.zeros(delay), unit[:n - delay]))
        tail.flags.writeable = False
        head.flags.writeable = False
        return cls(float(amplitude), int(delay), tail, head, int(prev_bit))


def _chip_table(users) -> np.ndarray:
    """The ``(2J, n)`` rows ``A_j tail_j`` and ``A_j head_j`` of ``users``, in user order."""
    return np.stack([user.amplitude * part for user in users for part in (user.tail, user.head)])


class CdmaScenario(_Stream):
    """Sample stream of received chip vectors with training bits.

    The desired user keeps index 0 (zero offset, so its whole symbol lies
    in the window); the training output is the desired user's bit.
    """

    constants = {"rng": "pcg64-seedsequence", "asynchrony": "chip-offset-partial-symbols"}
    n = GOLD_LENGTH

    def __init__(self, config: CdmaConfig):
        self.config = config
        (rng_codes, rng_delay, self._rng_bits, self._rng_noise,
         rng_post) = _spawn(config.seed, 5)
        family = gold_family()

        picks = rng_codes.choice(GOLD_FAMILY_SIZE, size=config.users, replace=False)
        self._desired_pick = int(picks[0])
        self.signature = family[self._desired_pick] / np.linalg.norm(family[self._desired_pick])
        self.signature.flags.writeable = False

        amp = config.interferer_amplitude
        pre = [_CdmaUser.from_code(family[self._desired_pick], 0, 1.0, 0)]
        for pick in picks[1:]:
            delay = int(rng_delay.integers(1, GOLD_LENGTH))
            prev = 1 - 2 * int(self._rng_bits.integers(0, 2))
            pre.append(_CdmaUser.from_code(family[int(pick)], delay, amp, prev))
        self._pre_users = tuple(pre)
        self._tables = [_chip_table(self._pre_users)]  # one per user set, as chunks() reads them

        if config.change_at is not None:
            remaining = [i for i in range(GOLD_FAMILY_SIZE) if i != self._desired_pick]
            post_picks = rng_post.choice(remaining, size=config.users_post - 1,
                                         replace=False)
            post = []
            for pick in post_picks:
                delay = int(rng_post.integers(1, GOLD_LENGTH))
                prev = 1 - 2 * int(rng_post.integers(0, 2))
                post.append(_CdmaUser.from_code(family[int(pick)], delay, amp, prev))
            self._post_users = tuple(post)
            self._tables.append(_chip_table(self._pre_users[:1] + self._post_users))
        else:
            self._post_users = None

        snr = 10.0 ** (config.snr_db / 10.0)
        self.noise_std = math.sqrt(1.0 / snr) if math.isfinite(config.snr_db) else 0.0
        self._saved = [(g, g.bit_generator.state) for g in (self._rng_bits, self._rng_noise)]

    def chunk_buffer(self, *rows: int):
        """A buffer for :meth:`chunks`, stacked over ``rows``, and its regressor view.

        A chunk's ``(m, n)`` chip vectors are built in the buffer's
        ``(*rows, _CHUNK, n)`` rows, so the view is the buffer itself.
        """
        buf = np.empty(rows + (_CHUNK, self.n))
        return buf, buf

    def _chunks(self, count: int, buffer):
        """The chunks of :meth:`chunks`, from the restored generators.

        Bits and noise are drawn one chunk at a time; a chunk ends at
        ``change_at``, where the user set changes. Every step draws one bit
        per active user, in user order, and the bits a user sent before the
        chunk carry into its first row as the previous symbol. The chip
        vectors are built in ``buffer``'s view as ``signs @ table``: each
        user set's ``(2J, n)`` table of rows ``A_j tail_j``, ``A_j head_j``
        times the users' previous and current bits. That is the per-user sum
        ``u += A_j (b' tail_j + b head_j)`` from zero bit for bit: tail and
        head have disjoint supports, so each term is one exact ``±A_j c``,
        and gemm adds the terms in user order (``fma(±1, c, acc)`` is
        ``acc ± c``). A one-row chunk is padded to two rows (``linalg``'s table).
        """
        chips, change = buffer[1], self.config.change_at
        table = self._tables[0]
        prev = np.array([user.prev_bit for user in self._pre_users])  # one per active user
        start = 0
        while start < count:
            if start == change:
                table = self._tables[1]
                prev = np.array([prev[0]] + [user.prev_bit for user in self._post_users])
            stop = count if change is None or start >= change else min(count, change)
            m = min(_CHUNK, stop - start)
            bits = 1 - 2 * self._rng_bits.integers(0, 2, size=m * len(prev))
            bits = bits.reshape(m, len(prev))
            signs = np.zeros((max(m, 2), len(prev), 2))
            signs[0, :, 0] = prev
            signs[1:m, :, 0] = bits[:-1]
            signs[:m, :, 1] = bits
            u = np.matmul(signs.reshape(len(signs), -1), table, out=chips[:len(signs)])[:m]
            if self.noise_std > 0.0:
                u += self.noise_std * self._rng_noise.standard_normal((m, self.n))
            prev, d = bits[-1].copy(), bits[:, 0].astype(float)
            del bits, signs  # a suspended stream keeps only what its next chunk reads
            yield StreamChunk(start, u, d)
            start += m
