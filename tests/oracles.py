"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (loops, explicit constructions,
textbook algorithms) and shares no code with the package internals.
"""

import numpy as np


def naive_quadratic_form(x, a):
    """x^T A x by explicit triple loop."""
    n = len(x)
    total = 0.0
    for i in range(n):
        row = 0.0
        for j in range(n):
            row += a[i][j] * x[j]
        total += x[i] * row
    return total


def qr_krylov_projector(a, p, rank):
    """Orthogonal projector onto span{p, Ap, ..., A^(rank-1) p} via QR."""
    cols = []
    v = np.asarray(p, dtype=float)
    for _ in range(rank):
        cols.append(v / np.linalg.norm(v))
        v = a @ v
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q @ q.T


def halfspace_projection_closed_form(x, normal, anchor, offset):
    """Minimizer of ||y - x|| subject to <y - anchor, normal> + offset <= 0."""
    g = float((x - anchor) @ normal) + offset
    if g <= 0:
        return np.asarray(x, dtype=float).copy()
    return x - (g / float(normal @ normal)) * normal


def jacobi_eigenvalues(a, tol=1e-14, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    m = np.array(a, dtype=float)
    n = m.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(m[p, q]))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(m[p, q]) < tol:
                    continue
                theta = 0.5 * np.arctan2(2.0 * m[p, q], m[q, q] - m[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
    return np.sort(np.diag(m))


def weighted_window_sums(updates, gamma, mode):
    """Direct evaluation of the exponentially weighted sums.

    ``updates`` is a list of (u, d) pairs in arrival order. Returns
    (r_term, p) where r_term is the first-row vector (toeplitz) or the
    full matrix (fullsym).
    """
    n = len(updates[0][0])
    p = np.zeros(n)
    r = np.zeros(n) if mode == "toeplitz" else np.zeros((n, n))
    count = len(updates)
    for j, (u, d) in enumerate(updates):
        w = gamma ** (count - 1 - j)
        if mode == "toeplitz":
            r = r + w * u[0] * u
        else:
            r = r + w * np.outer(u, u)
        p = p + w * d * u
    return r, p


def reference_parallel_update(h_tilde, reduced_cols, d_values, q, r, rho,
                              step_size, weights, project_half_space, HalfSpace):
    """One reduced-space update evaluated through explicit projections.

    ``reduced_cols`` holds the reduced regressors newest-first (one per
    ring slot); the update is the relaxed weighted combination of the
    subgradient projections onto each bounded-error half-space, with the
    parallel over-relaxation factor. Returns (h_next, updated, m_factor).
    """
    ring = len(reduced_cols)
    q_eff = min(q, ring)
    w = np.asarray(weights[:q_eff], dtype=float)
    w = w / w.sum()
    projections = []
    violated = []
    for j in range(q_eff):
        r_eff = min(r, ring - j)
        block = np.column_stack([reduced_cols[j + t] for t in range(r_eff)])
        dv = np.asarray([d_values[j + t] for t in range(r_eff)])
        e = block.T @ h_tilde - dv
        g = float(e @ e) - rho
        if g <= 0:
            projections.append(h_tilde.copy())
            violated.append(False)
            continue
        normal = 2.0 * (block @ e)
        if float(normal @ normal) == 0.0:
            projections.append(h_tilde.copy())  # skipped corner
            violated.append(False)
            continue
        hs = HalfSpace(normal=normal, offset=g, anchor=h_tilde)
        projections.append(project_half_space(h_tilde, hs))
        violated.append(True)
    if not any(violated):
        return h_tilde.copy(), False, None
    diffs = [p - h_tilde for p in projections]
    f_dir = sum(wj * dj for wj, dj in zip(w, diffs))
    loss = sum(wj * float(dj @ dj) for wj, dj in zip(w, diffs))
    nf = float(f_dir @ f_dir)
    if nf == 0.0:
        return h_tilde.copy(), False, None
    m_factor = loss / nf
    return h_tilde + step_size * m_factor * f_dir, True, m_factor


def energy_norm_best_approx(a, p, h_star, rank):
    """Best approximation of h_star over the Krylov span in the A-norm.

    Solved by normal equations in the A inner product over an explicit
    orthonormalized power basis.
    """
    cols = []
    v = np.asarray(p, dtype=float)
    for _ in range(rank):
        cols.append(v / np.linalg.norm(v))
        v = a @ v
    basis, _ = np.linalg.qr(np.column_stack(cols))
    gram = basis.T @ a @ basis
    rhs = basis.T @ (a @ h_star)
    return basis @ np.linalg.solve(gram, rhs)


def least_squares_fit(us, ds):
    """Exact unregularized LS solve on stacked regressors."""
    a = np.vstack(us)
    b = np.asarray(ds, dtype=float)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


def sysid_stream_per_step(scenario, count):
    """A system identification scenario's samples, drawn all at once.

    Seeds the input and noise substreams afresh from the scenario's seed
    and takes the system, coloring filter and noise level from the
    scenario. Yields ``(u, d, truth)`` per step.
    """
    cfg = scenario.config
    children = np.random.SeedSequence(int(cfg.seed)).spawn(6)
    rng_input, rng_noise = (np.random.Generator(np.random.PCG64(c)) for c in children[2:4])
    n = cfg.n
    if count == 0:
        return
    white = rng_input.standard_normal(count + n - 1 + cfg.fir_len - 1)
    x = np.convolve(white, scenario.coloring_fir, mode="valid")
    noise = (rng_noise.standard_normal(count) * scenario.noise_std
             if scenario.noise_std > 0.0 else np.zeros(count))
    for k in range(count):
        window = x[k:k + n][::-1].copy()
        truth = scenario.h_star
        if cfg.change_at is not None and k >= cfg.change_at:
            truth = scenario.h_star_post
        yield window, float(window @ truth) + float(noise[k]), truth


def cdma_stream_per_step(scenario, count):
    """A CDMA scenario's samples, one Python step and one draw at a time.

    Seeds the bit and noise substreams afresh from the scenario's seed,
    replays the construction's previous-bit draws, and takes each user's
    amplitude, partial signatures and first previous bit from the
    scenario. Yields ``(u, d)`` per step.
    """
    cfg = scenario.config
    children = np.random.SeedSequence(int(cfg.seed)).spawn(5)
    rng_bits, rng_noise = (np.random.Generator(np.random.PCG64(c)) for c in children[2:4])
    for _ in range(cfg.users - 1):
        rng_bits.integers(0, 2)

    def fresh(specs):
        return [[s.amplitude, s.tail, s.head, s.prev_bit] for s in specs]

    users = fresh(scenario._pre_users)
    for k in range(count):
        if cfg.change_at is not None and k == cfg.change_at:
            users = users[:1] + fresh(scenario._post_users)
        u = np.zeros(scenario.n)
        desired_bit = 0
        for idx, user in enumerate(users):
            bit = 1 - 2 * int(rng_bits.integers(0, 2))
            if idx == 0:
                desired_bit = bit
            amplitude, tail, head, prev = user
            u += amplitude * (prev * tail + bit * head)
            user[3] = bit
        if scenario.noise_std > 0.0:
            u = u + scenario.noise_std * rng_noise.standard_normal(scenario.n)
        yield u, float(desired_bit)


def trial_by_trial_records(config):
    """The records of ``run_experiment(config)``, every filter run trial by trial.

    The harness loop before the lockstep batches: each trial builds its
    scenario and one scalar filter per spec, runs them over its samples,
    and the per-step metrics are added over trials in trial-index order.
    """
    import math
    from dataclasses import replace

    from krrapsp import CdmaScenario, Cgrrf, KrrApsp, Nlms, Rls, SysIdScenario
    from krrapsp.experiments import MetricsRecord, trial_seeds

    iters = config.iters
    sums = {spec.label: np.zeros((4, iters)) for spec in config.filters}
    for seed in trial_seeds(config.seed, config.runs):
        if config.kind == "sysid":
            scen = SysIdScenario(replace(config.scenario, seed=int(seed)))
            n, mode, signature = config.scenario.n, "toeplitz", None
        else:
            scen = CdmaScenario(replace(config.scenario, seed=int(seed)))
            n, mode, signature = scen.n, "fullsym", scen.signature
        filters = {}
        for spec in config.filters:
            opts = dict(spec.options)
            init = None
            if spec.algorithm in ("krr-apsp", "cgrrf"):
                if opts.pop("init_from_signature", signature is not None):
                    init = signature
            if spec.algorithm == "krr-apsp":
                filt = KrrApsp(opts.pop("params"), n, mode=mode, h0=init, **opts)
            elif spec.algorithm == "cgrrf":
                filt = Cgrrf(n, mode=mode, init_vector=init, **opts)
            elif spec.algorithm == "nlms":
                filt = Nlms(n, **opts)
            else:
                filt = Rls(n, **opts)
            filters[spec.label] = filt
        trial = {label: np.zeros((4, iters)) for label in filters}
        for s in scen.samples(iters):
            for label, filt in filters.items():
                out = filt.step(s.u, s.d)
                err = s.d - out.y
                mis = math.nan
                if s.truth_h is not None:
                    diff = s.truth_h - out.h_full
                    mis = float(diff @ diff) / float(s.truth_h @ s.truth_h)
                trial[label][:, s.k] = (err * err, mis, float(out.updated), out.mults)
        for label in filters:
            sums[label] += trial[label]

    records = []
    for spec in config.filters:
        se, mis, upd, mults = sums[spec.label] / config.runs
        with np.errstate(divide="ignore"):
            mse_db = 10.0 * np.log10(se)
            mis_db = 10.0 * np.log10(mis)
        for k in range(iters):
            records.append(MetricsRecord(
                k=k, algorithm=spec.label, mse_db=float(mse_db[k]),
                mismatch_db=float(mis_db[k]), update_rate=float(upd[k]),
                mults=float(mults[k])))
    return records
