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

Streams are drawn in chunks of up to ``_CHUNK`` steps: one block draw per
substream and chunk. A block draw returns the values of the per-step
draws it replaces and leaves the generator in the same state, and the
chunk arithmetic is the per-step arithmetic, element by element, so the
samples are the ones a step-by-step generator gives. A stream therefore
draws up to one chunk ahead of what it has yielded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

GOLD_LENGTH = 31
GOLD_FAMILY_SIZE = 33

# steps per block draw of a scenario stream: enough to amortize the
# per-call cost of the draws, few enough that the streams of a lockstep
# ensemble (one chunk each) stay small
_CHUNK = 64


@dataclass(frozen=True)
class StreamSample:
    """One observation pair together with the hidden ground truth."""

    k: int
    u: np.ndarray
    d: float
    truth_h: np.ndarray | None = None
    truth_bit: int | None = None


def _spawn(seed: int, count: int):
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _config_items(cfg) -> dict:
    out = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        out[f.name] = "" if val is None else str(val)
    return out


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
    disables the noise.

    At ``change_at`` the unknown system is replaced while the input
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
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.fir_len < 1:
            raise ValueError("fir_len must be positive")
        if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
            raise ValueError("snr_db must be finite or +inf")
        if self.change_mode not in ("negate", "fresh"):
            raise ValueError("change_mode must be negate or fresh")


class SysIdScenario:
    """Sample stream for a system identification experiment.

    Noise power is calibrated against the clean output power measured on a
    dedicated pre-roll of ``10 * n`` samples, so the realized SNR matches
    the target. The regressor window always contains real signal history
    (the input stream starts ``n - 1`` samples early).
    """

    kind = "sysid"

    def __init__(self, config: SysIdConfig):
        self.config = config
        n = config.n
        (rng_h, rng_fir, self._rng_input, self._rng_noise, rng_post,
         rng_calib) = _spawn(config.seed, 6)

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
            calib = self._colored(10 * n + n - 1, rng_calib)
            z2 = 0.0
            count = 0
            for k in range(n - 1, len(calib)):
                window = calib[k - n + 1:k + 1][::-1]
                z = float(window @ self.h_star)
                z2 += z * z
                count += 1
            power = z2 / count
            self.noise_std = math.sqrt(power / (10.0 ** (config.snr_db / 10.0)))

    def _colored(self, count: int, rng) -> np.ndarray:
        white = rng.standard_normal(count + self.config.fir_len - 1)
        return np.convolve(white, self.coloring_fir, mode="valid")

    def truth_at(self, k: int) -> np.ndarray:
        c = self.config
        if c.change_at is not None and k >= c.change_at:
            return self.h_star_post
        return self.h_star

    def samples(self, count: int) -> Iterator[StreamSample]:
        """Generate ``count`` samples; restartable only via a fresh scenario.

        Input and noise are drawn one chunk at a time into buffers the
        stream keeps. Each chunk's colored input comes from the chunk's
        white samples plus the last ``n - 1 + fir_len - 1`` white samples
        before it, which its first windows and filter outputs reach back to.
        """
        n = self.config.n
        carry = n - 1 + self.config.fir_len - 1
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
            for t in range(m):
                window = x[t:t + n][::-1].copy()
                truth = self.truth_at(start + t)
                d = float(window @ truth) + float(noise[t])
                yield StreamSample(k=start + t, u=window, d=d, truth_h=truth)

    def serialize(self) -> dict:
        meta = _config_items(self.config)
        meta["kind"] = self.kind
        meta["rng"] = "pcg64-seedsequence"
        meta["noise_std"] = f"{self.noise_std:.12g}"
        return meta


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
    and every interferer amplitude ``interferer_amplitude``. ``snr_db`` is
    the ratio of the desired user's received power to the per-chip noise
    variance. At ``change_at`` every interferer leaves and
    ``users_post - 1`` fresh interferers (new codes, offsets, and bit
    streams) join; the desired user is untouched.
    """

    users: int = 8
    snr_db: float = 15.0
    interferer_amplitude: float = 1.0
    change_at: int | None = None
    users_post: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.users <= GOLD_FAMILY_SIZE:
            raise ValueError(f"users must lie in 1..{GOLD_FAMILY_SIZE}")
        if self.change_at is not None:
            if self.users_post is None:
                raise ValueError("users_post required with change_at")
            if not 1 <= self.users_post <= GOLD_FAMILY_SIZE:
                raise ValueError(f"users_post must lie in 1..{GOLD_FAMILY_SIZE}")
        if self.interferer_amplitude <= 0.0:
            raise ValueError("interferer_amplitude must be positive")


@dataclass(frozen=True)
class _CdmaUser:
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


class CdmaScenario:
    """Sample stream of received chip vectors with training bits.

    The desired user keeps index 0 (zero offset, so its whole symbol lies
    in the window); the training output is the desired user's bit.
    """

    kind = "cdma"
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
        else:
            self._post_users = None

        snr = 10.0 ** (config.snr_db / 10.0)
        self.noise_std = math.sqrt(1.0 / snr) if math.isfinite(config.snr_db) else 0.0

    def samples(self, count: int) -> Iterator[StreamSample]:
        """Generate ``count`` samples; restartable only via a fresh scenario.

        Bits and noise are drawn one chunk at a time; a chunk ends at
        ``change_at``, where the user set changes. Every step draws one bit
        per active user, in user order, and the bits a user sent before the
        chunk carry into its first row as the previous symbol.
        """
        change = self.config.change_at
        users = self._pre_users
        prev = np.array([user.prev_bit for user in users])
        start = 0
        while start < count:
            if start == change:
                users = users[:1] + self._post_users
                prev = np.array([prev[0]] + [user.prev_bit for user in self._post_users])
            stop = count if change is None or start >= change else min(count, change)
            m = min(_CHUNK, stop - start)
            bits = 1 - 2 * self._rng_bits.integers(0, 2, size=m * len(users))
            bits = bits.reshape(m, len(users))
            before = np.concatenate((prev[None, :], bits[:-1]))
            u = np.zeros((m, self.n))
            for j, user in enumerate(users):
                u += user.amplitude * (before[:, j, None] * user.tail
                                       + bits[:, j, None] * user.head)
            if self.noise_std > 0.0:
                u = u + self.noise_std * self._rng_noise.standard_normal((m, self.n))
            prev = bits[-1]
            for t, bit in enumerate(bits[:, 0].tolist()):
                yield StreamSample(k=start + t, u=u[t], d=float(bit), truth_bit=bit)
            start += m

    def serialize(self) -> dict:
        meta = _config_items(self.config)
        meta["kind"] = self.kind
        meta["rng"] = "pcg64-seedsequence"
        meta["asynchrony"] = "chip-offset-partial-symbols"
        meta["noise_std"] = f"{self.noise_std:.12g}"
        return meta
