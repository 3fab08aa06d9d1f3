"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The synthetic beam pattern cannot reproduce the original study's absolute
numbers, so the checks here are oracle agreement, closed-form identities,
convergence properties and qualitative trend ordering, at fixed seeds.
"""

import time
from itertools import combinations
from pathlib import Path

import numpy as np

from beamalloc import QoSProfile, SystemConfig
from beamalloc.allocators import (
    equal_power,
    joint_opt,
    joint_opt_generic,
    joint_opt_zf,
    satis_set_opt,
    satisfied_mask,
    sum_opt,
)
from beamalloc.experiment import (
    build_precoder,
    make_trial,
    parse_config,
    run_campaign,
)
from beamalloc.feasibility import build_demand_system, check_feasible, sinr_targets
from beamalloc.metrics import jain, lambda_objective, rates
from beamalloc.precoding import Precoder, make_rzf, make_zf
from beamalloc.surrogate import (
    DatasetRecord,
    TrainingConfig,
    _loss_and_grads,
    forward,
    gains_vector,
    normalize,
    normalize_powers,
    predict_powers,
    train,
)
from beamalloc.waterfill import waterfill
from conftest import random_channel
from oracles import numeric_grads, simplex_grid_best, waterfill_objective

B = 500.0
SWEEP = (200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0)


def _report(num, ok, detail):
    print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_waterfill_matches_grid_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        m = 1 + i % 4
        c = rng.lognormal(0.0, 1.0, size=m)
        budget = float(rng.uniform(0.2, 10.0))
        p = waterfill(c, budget)
        assert abs(p.sum() - budget) <= 1e-10 * max(budget, 1.0)
        assert np.all(p >= 0)
        got = waterfill_objective(c, p)
        ref = simplex_grid_best(c, budget)
        assert got >= ref - 1e-6 * abs(ref)
        worst = max(worst, (ref - got) / abs(ref))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 5.0,
        f"200 instances (m<=4) within 1e-6 of the exhaustive grid "
        f"(worst shortfall {worst:.2e}), {elapsed:.2f} s < 5 s",
    )


def _random_feasibility_instance(rng, tried):
    k = int(rng.integers(2, 8))
    n = k + int(rng.integers(0, 3))
    H = random_channel(n, k, int(rng.integers(0, 2**31)))
    kind = tried % 3
    if kind == 0:
        W = make_rzf(H, 1.0, 10.0)
    elif kind == 1:
        try:
            W = make_zf(H)
        except Exception:
            return None
    else:
        raw = random_channel(n, k, int(rng.integers(0, 2**31)))
        W = Precoder(
            W=raw / np.linalg.norm(raw, axis=0),
            raw_norms=np.linalg.norm(raw, axis=0),
            kind="rzf",
        )
    xi = B * rng.uniform(0.05, 0.5, size=k)
    return H, W, xi


def test_criterion_02_theorem1_exactness_and_lower_bound():
    rng = np.random.default_rng(202)
    accepted = 0
    tried = 0
    worst_rate = 0.0
    while accepted < 200:
        tried += 1
        assert tried < 5000, "feasible-instance generator stalled"
        inst = _random_feasibility_instance(rng, tried)
        if inst is None:
            continue
        H, W, xi = inst
        try:
            ds = build_demand_system(H, W, xi, 1.0, B)
        except Exception:
            continue
        rep = check_feasible(ds, p_max=10.0)
        if not rep.feasible:
            continue
        accepted += 1
        k = len(xi)
        cfg = SystemConfig(n_beams=max(k, H.shape[0]), n_users=k, bandwidth_mhz=B)
        r = rates(H, W, rep.min_powers, cfg)
        err = float(np.max(np.abs(r - xi) / xi))
        worst_rate = max(worst_rate, err)
        assert err < 1e-6
        assert rep.lower_bound <= rep.total_min_power + 1e-12
    _report(
        2,
        True,
        f"200 feasible instances: rates at p* hit demands (worst rel err "
        f"{worst_rate:.2e} < 1e-6), lower bound held on every instance",
    )


def test_criterion_03_zf_interference_free_identity():
    cfg = SystemConfig()
    rng = np.random.default_rng(303)
    worst = 0.0
    for seed in range(50):
        trial = make_trial(cfg, 40000 + seed)
        W = build_precoder(trial, cfg, "zf")
        p = rng.uniform(0.05, 60.0, size=cfg.n_users)
        full = rates(trial.channel, W, p, cfg)
        closed = cfg.bandwidth_mhz * np.log2(
            1.0 + p / (W.raw_norms**2 * cfg.noise_power_w)
        )
        worst = max(worst, float(np.max(np.abs(full - closed) / closed)))
    _report(
        3,
        worst < 1e-8,
        f"50 channels x random powers: full-interference rates match the ZF "
        f"closed form (worst rel dev {worst:.2e} < 1e-8)",
    )


def test_criterion_04_zf_subset_optimality():
    rng = np.random.default_rng(404)
    checked = 0
    tried = 0
    while checked < 100:
        tried += 1
        assert tried < 3000
        k = int(rng.integers(2, 4))
        cfg = SystemConfig(n_beams=k, n_users=k)
        trial = make_trial(cfg, 50000 + tried)
        try:
            W = build_precoder(trial, cfg, "zf")
        except Exception:
            continue
        xi = float(rng.uniform(800.0, 2500.0))
        qos = QoSProfile.uniform(xi, k)
        p_min = sinr_targets(qos.demands, cfg.bandwidth_mhz) * W.raw_norms**2
        if p_min.sum() <= cfg.p_max_w:
            continue  # not congested
        res = joint_opt_zf(trial.channel, W, qos, cfg)
        best = max(
            m
            for m in range(k + 1)
            for s in combinations(range(k), m)
            if p_min[list(s)].sum() <= cfg.p_max_w + 1e-12
        )
        assert len(res.satisfied) == best, (sorted(res.satisfied), best)
        checked += 1
    _report(
        4,
        True,
        "100 congested K<=3 instances: |Q| equals the exhaustive subset maximum",
    )


def test_criterion_05_convergence_theorem_trace():
    cfg = SystemConfig()
    congested = 0
    growth_max = 0
    for seed in range(1, 501):
        trial = make_trial(cfg, seed)
        for kind in ("zf", "rzf"):
            W = build_precoder(trial, cfg, kind)
            res = joint_opt_generic(trial.channel, W, QoSProfile.uniform(1000.0, 7), cfg)
            if not res.congested:
                continue
            congested += 1
            sizes = [t[0] for t in res.trace]
            assert all(b >= a for a, b in zip(sizes, sizes[1:])), (seed, kind, sizes)
            growth = sum(b > a for a, b in zip(sizes, sizes[1:]))
            growth_max = max(growth_max, growth)
            assert growth <= cfg.n_users
            if kind == "zf":
                # the descent series is exact where the subsolver solves the
                # pinned subproblem optimally (interference-free rates)
                sums = [t[1] for t in res.trace]
                assert all(b <= a * (1 + 1e-9) for a, b in zip(sums, sums[1:])), (
                    seed,
                    sums,
                )
    _report(
        5,
        congested > 300,
        f"{congested} congested runs in the 500-trial campaign: |Q| non-decreasing, "
        f"<= K growth steps (max {growth_max}), ZF sum-rate series non-increasing",
    )


def test_criterion_06_generic_matches_zf_algorithm():
    cfg = SystemConfig()
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(100):
        trial = make_trial(cfg, 60000 + i)
        W = build_precoder(trial, cfg, "zf")
        qos = QoSProfile.uniform(float(rng.uniform(300.0, 1300.0)), 7)
        a2 = joint_opt_zf(trial.channel, W, qos, cfg)
        g = joint_opt_generic(trial.channel, W, qos, cfg)
        assert g.satisfied == a2.satisfied, (i, sorted(a2.satisfied), sorted(g.satisfied))
        rel = abs(g.rates_mbps.sum() - a2.rates_mbps.sum()) / a2.rates_mbps.sum()
        worst = max(worst, rel)
        assert rel < 1e-6
    _report(
        6,
        True,
        f"100 instances: satisfied sets identical, sum rate within 1e-6 "
        f"(worst {worst:.2e})",
    )


def test_criterion_07_trend_reproduction():
    t0 = time.perf_counter()
    cfg = SystemConfig()
    k = cfg.n_users
    n_trials = 200
    trials = [make_trial(cfg, 1 + t) for t in range(n_trials)]
    stats = {}
    for kind in ("zf", "rzf"):
        precoders = [build_precoder(tr, cfg, kind) for tr in trials]
        for xi in SWEEP:
            qos = QoSProfile.uniform(xi, k)
            for strategy, fn in (
                ("equal", equal_power),
                ("sumopt", sum_opt),
                ("satisset", satis_set_opt),
                ("joint", joint_opt),
            ):
                cong = sat = 0
                jains = []
                lams = []
                for tr, W in zip(trials, precoders):
                    res = fn(tr.channel, W, qos, cfg)
                    so_rates = sum_opt(tr.channel, W, qos, cfg).rates_mbps
                    mask = satisfied_mask(res.rates_mbps, qos.demands)
                    cong += int(not mask.all())
                    sat += int(mask.sum())
                    jains.append(jain(res.rates_mbps / qos.demands))
                    lams.append(lambda_objective(res.rates_mbps, len(res.satisfied), so_rates))
                stats[(kind, strategy, xi)] = (
                    cong / n_trials,
                    sat / (n_trials * k),
                    float(np.mean(jains)),
                    float(np.mean(lams)),
                )
    problems = []
    for kind in ("zf", "rzf"):
        for strategy in ("equal", "sumopt", "satisset", "joint"):
            cs = [stats[(kind, strategy, xi)][0] for xi in SWEEP]
            if any(b < a - 1e-12 for a, b in zip(cs, cs[1:])):
                problems.append(f"(a) {kind}/{strategy} congestion not monotone")
        for xi in SWEEP:
            if stats[(kind, "joint", xi)][1] < stats[(kind, "sumopt", xi)][1] - 1e-12:
                problems.append(f"(b) {kind} xi={xi}")
        top = SWEEP[-1]
        j_joint = stats[(kind, "joint", top)][2]
        j_equal = stats[(kind, "equal", top)][2]
        j_sum = stats[(kind, "sumopt", top)][2]
        if not (j_joint > j_equal > j_sum):
            problems.append(f"(c) {kind}: {j_joint:.3f}/{j_equal:.3f}/{j_sum:.3f}")
        for xi in SWEEP:
            l_joint = stats[(kind, "joint", xi)][3]
            for other in ("equal", "sumopt", "satisset"):
                if l_joint < stats[(kind, other, xi)][3] - 1e-12:
                    problems.append(f"(d) {kind} xi={xi} vs {other}")
    elapsed = time.perf_counter() - t0
    cong_span = (stats[("zf", "joint", SWEEP[0])][0], stats[("zf", "joint", SWEEP[-1])][0])
    _report(
        7,
        not problems and elapsed < 300.0,
        f"200-trial sweep, both precoders: congestion monotone "
        f"(joint/zf {cong_span[0]:.2f}->{cong_span[1]:.2f}), joint>=sumopt "
        f"satisfaction everywhere, Jain ordering at 1200 Mbps, joint tops the "
        f"normalized objective at every point; {elapsed:.1f} s < 300 s"
        + ("" if not problems else f"; problems: {problems}"),
    )


def test_criterion_08_surrogate_quality():
    cfg = SystemConfig()
    k = cfg.n_users
    qos = QoSProfile.uniform(250.0, k)
    n_train, n_test = 5000, 1000
    records = []
    for i in range(n_train + n_test):
        trial = make_trial(cfg, 1 + i)
        W = build_precoder(trial, cfg, "zf")
        res = joint_opt_zf(trial.channel, W, qos, cfg)
        records.append(
            DatasetRecord(
                x=gains_vector(trial.channel),
                p_star=res.powers,
                seed=1 + i,
                strategy="joint_zf",
            )
        )
    model, _ = train(
        records[:n_train],
        TrainingConfig(hidden=(128, 64), epochs=150, patience=10, seed=7),
    )
    test = records[n_train:]
    x_te = np.stack([r.x for r in test])
    p_te = np.stack([r.p_star for r in test])
    pred_norm = forward(model, normalize(x_te, model.norm_stats))
    nmse = float(
        np.mean(np.sum((pred_norm - normalize_powers(p_te, model.norm_stats)) ** 2, axis=1)) / k
    )

    t0 = time.perf_counter()
    powers = predict_powers(model, x_te, cfg.p_max_w)
    surro_ms = (time.perf_counter() - t0) * 1e3 / n_test
    model_sat = surro_sat = 0
    model_ms = 0.0
    for rec, p in zip(test, powers):
        trial = make_trial(cfg, rec.seed)
        W = build_precoder(trial, cfg, "zf")
        t1 = time.perf_counter()
        res = joint_opt_zf(trial.channel, W, qos, cfg)
        model_ms += (time.perf_counter() - t1) * 1e3
        model_sat += len(res.satisfied)
        r = rates(trial.channel, W, p, cfg)
        surro_sat += int(satisfied_mask(r, qos.demands).sum())
    model_ms /= n_test
    gap = 100.0 * abs(model_sat - surro_sat) / (n_test * k)
    speedup = model_ms / surro_ms
    ok = nmse < 0.05 and gap < 15.0 and speedup > 2.0
    _report(
        8,
        ok,
        f"{n_train} labels: test NMSE {nmse:.4f} < 0.05, satisfaction gap "
        f"{gap:.2f} < 15 points ({100 * model_sat / (n_test * k):.2f}% vs "
        f"{100 * surro_sat / (n_test * k):.2f}%), speedup {speedup:.1f}x > 2x",
    )


def test_criterion_09_gradient_check():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        depth = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
        weights = [rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [rng.normal(size=b) for b in sizes[1:]]
        x = rng.normal(size=(3, sizes[0]))
        t = rng.normal(size=(3, sizes[-1]))
        _, gw, gb = _loss_and_grads(weights, biases, x, t)
        nw, nb = numeric_grads(weights, biases, x, t, eps=1e-5)
        for a, b in zip(gw + gb, nw + nb):
            rel = np.abs(a - b).max() / max(np.abs(b).max(), 1e-8)
            worst = max(worst, float(rel))
    _report(
        9,
        worst < 1e-4,
        f"20 random networks: analytic vs central-difference gradients agree "
        f"(worst rel err {worst:.2e} < 1e-4)",
    )


def test_criterion_10_campaign_determinism(tmp_path):
    text = """
system.n_beams = 7
system.n_users = 7
qos.sweep = 400, 1000
strategies = equal, sumopt, satisset, joint
precoders = zf, rzf
n_trials = 5
base_seed = 77
output.dir = {out}
"""
    outputs = []
    for run in ("a", "b"):
        p = tmp_path / f"{run}.cfg"
        p.write_text(text.format(out=tmp_path / run))
        out = run_campaign(parse_config(str(p)))
        outputs.append(
            (Path(out["per_trial"]).read_bytes(), Path(out["aggregate"]).read_bytes())
        )
    ok = outputs[0] == outputs[1]
    _report(10, ok, "two identical-config campaigns produced byte-identical CSVs")
