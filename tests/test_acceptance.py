"""Acceptance gate: one test per criterion, each printing a summary line with
the measured values (run with `pytest -v -s tests/test_acceptance.py`).

The rate-recovery and plateau experiments use frozen, calibrated constants for
the free multipliers of the parameter schedules; see the comment on cli.PRESETS.
"""
import json
import math
import time

import numpy as np
import pytest

from specrf import cli, conclab, estimator, features, neuralop, spectral, synthetic


def report(line: str) -> None:
    print(f"\n{line}")


# -------------------------------------------------------------------- 1

def test_acceptance_1_filter_axioms():
    """100x100 (t, lambda) grids, three filters, zero flags, < 5 s."""
    t0 = time.time()
    t_grid = np.linspace(0.01, 1.0, 100)
    lam_grid = np.linspace(0.01, 1.0, 100)
    q_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    reports = {
        "tikhonov": spectral.verify_filter_constants(
            spectral.tikhonov(), t_grid, lam_grid, q_grid),
        "landweber": spectral.verify_filter_constants(
            spectral.landweber(1.0), t_grid,
            spectral.landweber_lambda_grid(1.0, 100), q_grid + [2.0, 4.0]),
        "cutoff": spectral.verify_filter_constants(
            spectral.cutoff(), t_grid, lam_grid, q_grid + [2.0, 4.0]),
    }
    elapsed = time.time() - t0
    flags = ("d_flag", "e_flag", "c0_flag", "cq_flag")
    for name, rows in reports.items():
        assert not any(row[f] for row in rows for f in flags), f"{name} raised flags"
    assert elapsed < 5.0
    report(f"ACCEPTANCE 1 (filter axioms): PASS - zero flags for "
           f"{', '.join(reports)} in {elapsed:.2f}s")


# -------------------------------------------------------------------- 2

def test_acceptance_2_oracle_equivalence():
    """fit_closed(landweber) vs fit_gd to 1e-9 relative on 50 instances, < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    spec = synthetic.spectrum_spec(b=1.0, d_max=16)
    for trial in range(50):
        problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=trial)
        noise = synthetic.noise_model(problem, 0.5)
        n = int(rng.integers(5, 101))
        m = int(rng.integers(2, 51))
        U, V = synthetic.sample_dataset(problem, n, noise, seed=1000 + trial)
        fs = features.sample_features(problem.feature_map, m, seed=2000 + trial)
        design = features.build_design(fs, U)
        steps = int(rng.integers(2, 80))
        alpha = 0.5
        gd = estimator.fit_gd(design, V, alpha, steps)
        closed = estimator.fit_closed(
            design, V, spectral.landweber(alpha), 1.0 / (alpha * steps))
        scale = max(1.0, float(np.max(np.abs(closed.theta))))
        worst = max(worst, float(np.max(np.abs(gd.theta - closed.theta))) / scale)
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    report(f"ACCEPTANCE 2 (oracle equivalence): PASS - max relative "
           f"difference {worst:.2e} over 50 instances in {elapsed:.1f}s")


# -------------------------------------------------------------------- 3

RATE_CASES = {f"r={cfg['r']} b={cfg['b']}": cfg
              for command, cfg in cli.PRESETS.values() if command == "rates"}


@pytest.mark.parametrize("label", list(RATE_CASES))
def test_acceptance_3_rate_recovery(label, tmp_path):
    """Schedule-driven excess-risk slope within 0.1 of -r/(2r+b), < 10 min."""
    t0 = time.time()
    code = cli.main(["rates", "--config", json.dumps(RATE_CASES[label]), "--out", str(tmp_path),
                     "--seed", "2024", "--jobs", "4"])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    slope, target = manifest["slope"], manifest["target_slope"]
    elapsed = time.time() - t0
    assert abs(slope - target) <= 0.1, f"{label}: slope {slope:.3f} vs {target:.3f}"
    assert elapsed < 600.0
    report(f"ACCEPTANCE 3 (rate recovery, {label}): PASS - slope {slope:+.3f} "
           f"vs target {target:+.3f} in {elapsed:.0f}s")


# -------------------------------------------------------------------- 4

def test_acceptance_4_feature_count_plateau():
    """d=1 NTK map (p=3), n=1000, fixed T: error at 4 sqrt(n) p within 5% of
    the error at 16 sqrt(n) p over 20 seeds, < 5 min."""
    t0 = time.time()
    n, p = 1000, 3
    m_star = math.ceil(4 * math.sqrt(n) * p)
    m_big = math.ceil(16 * math.sqrt(n) * p)

    spec = synthetic.spectrum_spec(b=1.0, d_max=8)
    problem = synthetic.make_problem(spec, r=1.5, R=2.0, seed=0)
    noise = synthetic.noise_model(problem, 0.1)
    arch = features.OperatorArchitecture(
        features.tanh_act(), np.zeros(1), d_y=1, use_lift=False)
    fmap = features.ntk_feature_map(arch, input_bound=math.sqrt(2.0))
    assert fmap.p == p

    alpha = 0.5
    sched = synthetic.rate_schedule(
        n, 1.5, 1.0, 0.1, synthetic.ScheduleMultipliers(C=0.037, p=p))
    # schedule lambda on the kernel scale -> step count on the normalized scale
    steps = max(1, round(fmap.kappa ** 2 / (alpha * sched.lambda_n)))

    errors = {m_star: [], m_big: []}
    for seed_seq in np.random.SeedSequence(12345).spawn(20):
        s_data, s_test, s_f1, s_f2 = [
            int(s.generate_state(1)[0]) for s in seed_seq.spawn(4)]
        U_tr, V_tr = synthetic.sample_dataset(problem, n, noise, s_data)
        U_te, V_te = synthetic.sample_dataset(problem, n, noise, s_test)
        for m, s_feat in ((m_star, s_f1), (m_big, s_f2)):
            fs = features.sample_features(fmap, m, s_feat)
            design = features.build_design(fs, U_tr.reshape(-1, 1))
            model = estimator.fit_gd(design, V_tr, alpha, steps)
            rep = estimator.evaluate(model, U_te.reshape(-1, 1), V_te)
            errors[m].append(rep.empirical_risk)
    e_star = float(np.mean(errors[m_star]))
    e_big = float(np.mean(errors[m_big]))
    ratio = e_star / e_big
    elapsed = time.time() - t0
    assert abs(ratio - 1.0) <= 0.05, f"plateau ratio {ratio:.4f}"
    assert elapsed < 300.0
    report(f"ACCEPTANCE 4 (feature-count plateau): PASS - error(M={m_star}) "
           f"within {abs(ratio - 1) * 100:.2f}% of error(M={m_big}), T={steps}, "
           f"in {elapsed:.0f}s")


# -------------------------------------------------------------------- 5

def test_acceptance_5_kernel_monte_carlo_rate():
    """||K_M - K||_HS slope -0.5 +- 0.15 over M in {16,...,1024}, 100 seeds, < 2 min."""
    t0 = time.time()
    spec = synthetic.spectrum_spec(b=1.0, d_max=32)
    problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=0)
    mu = spec.eigenvalues
    ms = [16, 64, 256, 1024]
    means = []
    for m in ms:
        errs = [
            np.linalg.norm(synthetic.lm_eigenvalues(
                problem, features.sample_features(problem.feature_map, m, seed=s)) - mu)
            for s in range(100)
        ]
        means.append(float(np.mean(errs)))
    slope = synthetic.fit_rate(ms, means)
    elapsed = time.time() - t0
    assert abs(slope + 0.5) <= 0.15
    assert elapsed < 120.0
    report(f"ACCEPTANCE 5 (kernel Monte Carlo rate): PASS - slope {slope:+.3f} "
           f"in {elapsed:.1f}s")


# -------------------------------------------------------------------- 6

def test_acceptance_6_concentration_validity():
    """E1-E9 at delta = 0.1 (d_max <= 64, n, M <= 400): violation rate <= 0.1
    over 200 trials each, < 10 min total."""
    t0 = time.time()
    spec = synthetic.spectrum_spec(b=1.0, d_max=64)
    problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=17)
    noise = synthetic.noise_model(problem, 0.3)
    rates = {}
    for eid in conclab.ALL_EVENTS:
        row = conclab.simulate_event(eid, problem, noise, n=400, M=400, lam=0.1,
                                     delta=0.1, trials=200, seed=7)
        rates[eid] = row["violation_rate"]
        assert row["violation_rate"] <= 0.1, f"{eid}: rate {row['violation_rate']}"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    worst = max(rates.values())
    report(f"ACCEPTANCE 6 (concentration validity): PASS - max violation rate "
           f"{worst:.3f} over E1-E9 in {elapsed:.0f}s")


# -------------------------------------------------------------------- 7

def test_acceptance_7_ntk_correctness():
    """empirical_ntk vs kernel_approx to 1e-10; gradients vs finite differences
    to 1e-5 relative; symmetric init outputs <= 1e-12; < 1 min."""
    t0 = time.time()
    arch = features.OperatorArchitecture(
        features.tanh_act(), np.linspace(0.0, 1.0, 8), d_y=1)
    rng = np.random.default_rng(3)

    no = neuralop.init_symmetric(arch, 64, tau=1.0, seed=0)
    U = rng.normal(size=(20, 8, 1))
    init_sup = float(np.max(np.abs(neuralop.forward(no, U))))
    assert init_sup <= 1e-12

    fs = neuralop.tangent_feature_set(no, deriv_scale=1.0)
    ntk_gap = 0.0
    for _ in range(5):
        u, u2 = rng.normal(size=(2, 8, 1))
        gap = np.max(np.abs(
            neuralop.empirical_ntk(no, u, u2) - features.kernel_approx(fs, u, u2)))
        ntk_gap = max(ntk_gap, float(gap))
    assert ntk_gap <= 1e-10

    step, worst_rel = 1e-6, 0.0
    for seed in range(10):
        prng = np.random.default_rng(seed)
        probe = neuralop.init_symmetric(arch, 8, tau=1.0, seed=seed)
        probe = neuralop.replace(
            probe,
            a=probe.a + 0.2 * prng.normal(size=probe.M),
            B=probe.B + 0.2 * prng.normal(size=probe.B.shape),
        )
        U_p = prng.normal(size=(4, 8, 1))
        V_p = prng.normal(size=(4, 8))
        r0, ga, gb = neuralop._risk_and_gradients(probe, arch.coerce_inputs(U_p), V_p)

        def risk(a_vec, b_mat):
            return neuralop._risk(
                neuralop.replace(probe, a=a_vec, B=b_mat),
                arch.coerce_inputs(U_p), V_p)

        assert r0 == risk(probe.a, probe.B)

        for m in (0, probe.M - 1):
            ap, am = probe.a.copy(), probe.a.copy()
            ap[m] += step
            am[m] -= step
            fd = (risk(ap, probe.B) - risk(am, probe.B)) / (2 * step)
            worst_rel = max(worst_rel, abs(fd - ga[m]) / max(abs(fd), 1e-10))
        for m, j in [(0, 0), (probe.M - 1, arch.d_tilde - 1)]:
            bp, bm = probe.B.copy(), probe.B.copy()
            bp[m, j] += step
            bm[m, j] -= step
            fd = (risk(probe.a, bp) - risk(probe.a, bm)) / (2 * step)
            worst_rel = max(worst_rel, abs(fd - gb[m, j]) / max(abs(fd), 1e-10))
    assert worst_rel <= 1e-5
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(f"ACCEPTANCE 7 (NTK correctness): PASS - init sup {init_sup:.1e}, "
           f"kernel gap {ntk_gap:.1e}, gradient rel err {worst_rel:.1e} "
           f"in {elapsed:.1f}s")


# -------------------------------------------------------------------- 8

def _operator_task(rng, n, n_x):
    grid = np.linspace(0.0, 1.0, n_x)
    coeff = rng.normal(size=(n, 3))
    U = sum(coeff[:, k - 1][:, None] * np.cos(k * np.pi * grid)[None, :] / k
            for k in range(1, 4))
    V = np.cumsum(U, axis=1) / np.arange(1, n_x + 1)
    return U[:, :, None], V


def test_acceptance_8_linearization_sanity():
    """Identity activation: discrepancy <= 1e-10 for all widths at the single
    gradient step where linearization is exact (the two-layer product
    parametrization genuinely departs from its tangent model for T >= 2; see
    the multi-step test in test_neuralop.py).  tanh: median discrepancy
    strictly decreasing over M in {64, 256, 1024}, 10 seeds, < 5 min."""
    t0 = time.time()
    n_x = 16
    rng = np.random.default_rng(0)
    U, V = _operator_task(rng, 32, n_x)
    U_test, _ = _operator_task(rng, 64, n_x)
    grid = np.linspace(0.0, 1.0, n_x)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(5).spawn(10)]

    arch_id = features.OperatorArchitecture(features.identity_act(), grid, d_y=1)
    rows_id = neuralop.compare_to_kernel_gd(
        arch_id, U, V, U_test, widths=[64, 256, 1024],
        alpha=0.25, n_steps=1, seeds=seeds)
    worst_id = max(r["discrepancy"] for r in rows_id)
    assert worst_id <= 1e-10

    arch_tanh = features.OperatorArchitecture(features.tanh_act(), grid, d_y=1)
    rows_tanh = neuralop.compare_to_kernel_gd(
        arch_tanh, U, V, U_test, widths=[64, 256, 1024],
        alpha=0.25, n_steps=32, seeds=seeds)
    med = neuralop.median_discrepancies(rows_tanh)
    assert med[64] > med[256] > med[1024], f"medians not decreasing: {med}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(f"ACCEPTANCE 8 (linearization sanity): PASS - identity max "
           f"{worst_id:.1e} at T=1; tanh medians {med[64]:.2e} > {med[256]:.2e} "
           f"> {med[1024]:.2e} in {elapsed:.0f}s")


# -------------------------------------------------------------------- 9

DETERMINISM_CONFIGS = {
    "gen": {"n": 40, "d_max": 16},
    "fit": {"problem": {"r": 0.5, "b": 1.0, "d_max": 32, "R": 1.0,
                        "noise_half_width": 0.3},
            "n_train": 60, "n_test": 60, "M": 24, "T": 20},
    "sweep-heatmap": {"problem": {"r": 1.5, "b": 1.0, "d_max": 8, "R": 2.0,
                                  "noise_half_width": 0.1},
                      "n_train": 100, "n_test": 100, "M_grid": [8, 16],
                      "T_grid": [1, 4], "repetitions": 2},
    "rates": {"n_grid": [100, 200, 400], "repetitions": 2, "d_max": 32,
              "n_test": 100},
    "verify": {"problem": {"r": 0.5, "b": 1.0, "d_max": 16, "R": 1.0,
                           "noise_half_width": 0.3},
               "trials": 50, "event_n": 50, "event_M": 50,
               "events": ["E2", "E6", "E7"], "grid_points": 20,
               "max_landweber_steps": 20},
    "ntk-compare": {"grid_size": 6, "n_train": 10, "n_test": 10,
                    "M_grid": [8, 16], "T": 4, "repetitions": 2},
}


def test_acceptance_9_cli_determinism(tmp_path):
    """Every subcommand is byte-identical across two runs with one seed."""
    t0 = time.time()
    for command, config in DETERMINISM_CONFIGS.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{command}-{run}"
            code = cli.main([command, "--config", str(cfg_path), "--out",
                             str(out), "--seed", "11", "--jobs", "1"])
            assert code == 0, f"{command} exited {code}"
            outs.append(out)
        for csv_file in sorted(outs[0].glob("*.csv")):
            twin = outs[1] / csv_file.name
            assert csv_file.read_bytes() == twin.read_bytes(), \
                f"{command}/{csv_file.name} differs between runs"
    elapsed = time.time() - t0
    report(f"ACCEPTANCE 9 (CLI determinism): PASS - "
           f"{len(DETERMINISM_CONFIGS)} subcommands byte-identical in {elapsed:.0f}s")
