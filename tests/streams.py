"""Sample streams for driving filters, ordinary ones and corner cases.

Each builder returns a list of ``(u, d)`` pairs. The corner streams are
the ones the filter tests construct: zero outputs that keep KRR-APSP in
passthrough, zero outputs that let the cross-correlation estimate decay
towards underflow, an output that cancels the cross-correlation estimate after
the first basis build, regressors confined to one coordinate (the Krylov basis
truncates to rank 1), a later widening of that subspace (the effective
rank changes at a refresh), and a repeated regressor with opposite
outputs (a violated set with a vanishing subgradient, or two violated
sets whose directions cancel). For NLMS there are a zero regressor and an
output equal to the filter's own prediction (a zero error).
"""

import numpy as np

from krrapsp import Nlms, SysIdConfig, SysIdScenario


def sysid_stream(n, steps, seed, snr_db=15.0):
    """Colored-input system identification samples."""
    scen = SysIdScenario(SysIdConfig(n=n, snr_db=snr_db, seed=seed))
    return [(s.u, s.d) for s in scen.samples(steps)]


def passthrough_stream(n, steps, seed, zero_until):
    """System identification samples whose outputs are zero before ``zero_until``."""
    return [(u, 0.0 if k < zero_until else d)
            for k, (u, d) in enumerate(sysid_stream(n, steps, seed))]


def silenced_stream(n, steps, seed, silent_from):
    """System identification samples whose outputs are zero from ``silent_from`` on.

    The regressors stay ordinary, so the cross-correlation estimate decays
    by the forgetting factor every step while the autocorrelation does not.
    """
    return [(u, d if k < silent_from else 0.0)
            for k, (u, d) in enumerate(sysid_stream(n, steps, seed))]


def cancelled_p_stream(n, steps, gamma, at):
    """Regressor ``e_0`` throughout; the output at ``at`` zeroes ``p`` exactly.

    Outputs are 1 before ``at``. At ``at`` the output is minus the decayed
    estimate, computed with the estimator's own floating-point operations,
    so ``gamma * p + d * u`` is exactly zero; later outputs are 0 and keep
    it there.
    """
    u = np.zeros(n)
    u[0] = 1.0
    out, p0 = [], 0.0
    for k in range(steps):
        d = 1.0 if k < at else (-(gamma * p0) if k == at else 0.0)
        p0 = gamma * p0 + d * 1.0
        out.append((u, d))
    return out


def subspace_stream(n, steps, seed, until=None, since=0):
    """Regressors along the first coordinate only, from step ``since`` until step ``until``.

    Both the Toeplitz and the full statistics then keep ``p`` and ``R p``
    parallel, so the Krylov basis has rank 1; other samples are ordinary.
    From ``since`` on, the ordinary samples before it fade from the
    statistics, and the effective rank falls to 1 once they are below the
    truncation tolerance.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k, (u, d) in enumerate(sysid_stream(n, steps, seed)):
        if since <= k and (until is None or k < until):
            u = np.zeros(n)
            u[0] = rng.standard_normal()
            d = float(rng.standard_normal())
        out.append((u, d))
    return out


def repeated_regressor_stream(n, steps, seed, at, ring, delta=3.0):
    """Random samples; the ``ring`` samples ending at ``at`` share one regressor.

    Their outputs, newest first, are ``delta, -delta, 0, ...``. At the
    first basis build (step ``n - 1``, where the reduced filter is still
    zero) the newest set with ``r >= 2`` errors has a zero subgradient,
    and with ``r = 1`` and equal weights the two newest sets cancel.
    """
    rng = np.random.default_rng(seed)
    out = [(rng.standard_normal(n), float(rng.standard_normal())) for _ in range(steps)]
    shared = rng.standard_normal(n)
    for age in range(ring):
        d = (delta, -delta)[age] if age < 2 else 0.0
        out[at - age] = (shared, d)
    return out


def unit_stream(n, steps):
    """Regressor ``e_0`` and output 1 throughout.

    The statistics are a multiple of ``e_0 e_0^T`` (full) or of the
    identity (Toeplitz) with ``p`` along ``e_0``, so conjugate gradients
    reach a zero residual after one step and stop early.
    """
    u = np.zeros(n)
    u[0] = 1.0
    return [(u, 1.0)] * steps


def zero_regressor_stream(n, steps, seed, at):
    """System identification samples with a zero regressor at step ``at``."""
    out = sysid_stream(n, steps, seed)
    out[at] = (np.zeros(n), out[at][1])
    return out


def exact_fit_stream(n, steps, seed, at, step_size):
    """System identification samples whose output at ``at`` is NLMS's prediction.

    ``Nlms(n, step_size)`` fed with this stream has a zero error at step
    ``at``, so it does not update there.
    """
    out = sysid_stream(n, steps, seed)
    filt = Nlms(n, step_size=step_size)
    for k in range(at):
        filt.step(*out[k])
    out[at] = (out[at][0], float(filt.coefficients @ out[at][0]))
    return out
