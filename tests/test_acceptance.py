"""End-to-end acceptance suite.

Each test enforces one numbered criterion at its stated tolerance and
runtime budget, and prints a single [ACnn] PASS/FAIL line (visible with
``pytest -s``; pytest's own -v listing gives the same one-line-per-criterion
view). AC8 is report-only: it prints its outcome and diagnostics but never
fails the run.
"""
import time

import numpy as np

from covtarget import (
    BekkParams,
    DccParams,
    Garch11Params,
    OptimizerOptions,
    ReturnPanel,
    bekk_filter,
    bekk_fit,
    bekk_loglik,
    bekk_modified_loglik,
    bekk_simulate,
    build_graph,
    build_target,
    complete_linkage,
    corr_distance,
    dcc_filter,
    dcc_fit,
    dcc_modified_loglik,
    dcc_simulate,
    dcc_stage2_loglik,
    frobenius_path_loss,
    kl_divergence,
    maximal_cliques,
    sample_moments,
)
from covtarget.cli import main as cli_main
from covtarget.data import write_returns_csv
from covtarget.linalg import _factor_stack_into

from conftest import bekk2, random_corr

from tables import (
    CLIQUES5_D50,
    CLIQUES5_D71,
    CLIQUES8_D50,
    CLIQUES15_D50,
    CORR5,
    CORR8,
    CORR15,
    LABELS5,
    LABELS8,
    LABELS15,
)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"[AC{num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def bekk3() -> BekkParams:
    return BekkParams(
        c_lower=np.array(
            [[0.20, 0.0, 0.0], [0.05, 0.18, 0.0], [0.03, 0.04, 0.16]]
        ),
        a_diag=np.array([0.25, 0.30, 0.35]),
        b_diag=np.array([0.90, 0.88, 0.85]),
    )


def dcc3(theta1: float = 0.05, theta2: float = 0.90) -> DccParams:
    g = Garch11Params(omega=0.05, alpha=0.05, beta=0.90)
    q = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
    return DccParams(univariate=(g, g, g), theta1=theta1, theta2=theta2, q_bar=q)


def test_ac01_loss_kernel_closed_forms():
    t0 = time.perf_counter()
    kl_forward = kl_divergence(np.eye(2), 2.0 * np.eye(2))
    kl_backward = kl_divergence(2.0 * np.eye(2), np.eye(2))
    want = (np.log(4.0) - 1.0) / 2.0
    frob = frobenius_path_loss(2.0 * np.eye(2)[None, :, :], np.eye(2))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(kl_forward - want) < 1e-10
        and abs(frob - np.sqrt(2.0)) < 1e-10
        and abs(kl_forward - kl_backward) > 1e-3
        and elapsed < 1.0
    )
    announce(
        1,
        ok,
        f"KL={kl_forward:.12f} (want {want:.12f}), F={frob:.12f} "
        f"(want {np.sqrt(2.0):.12f}), asymmetry "
        f"{abs(kl_forward - kl_backward):.4f}, {elapsed:.3f}s (< 1s)",
    )


def _brute_cliques(adjacency: np.ndarray) -> tuple:
    n = adjacency.shape[0]
    nbr = [
        sum(1 << j for j in range(n) if j != i and adjacency[i, j] != 0.0)
        for i in range(n)
    ]
    out = []
    for mask in range(1, 1 << n):
        m = mask
        clique = True
        while m:
            i = (m & -m).bit_length() - 1
            if (nbr[i] | (1 << i)) & mask != mask:
                clique = False
                break
            m &= m - 1
        if not clique:
            continue
        if any(not (mask >> v & 1) and nbr[v] & mask == mask for v in range(n)):
            continue
        out.append(tuple(i for i in range(n) if mask >> i & 1))
    return tuple(sorted(out))


def test_ac02_clique_enumeration_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240812)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        c = rng.uniform(-1.0, 1.0, (n, n))
        c = 0.5 * (c + c.T)
        np.fill_diagonal(c, 1.0)
        g = build_graph(
            c, tuple(f"V{i}" for i in range(n)), float(rng.uniform(0.1, 0.9))
        )
        assert maximal_cliques(g) == _brute_cliques(g.adjacency)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and elapsed < 30.0
    announce(2, ok, f"{checked}/100 random graphs match, {elapsed:.1f}s (< 30s)")


def test_ac03_observed_market_structures():
    t0 = time.perf_counter()
    got5_50 = maximal_cliques(build_graph(CORR5, LABELS5, 0.5))
    got5_71 = maximal_cliques(build_graph(CORR5, LABELS5, 0.71))
    got8_50 = maximal_cliques(build_graph(CORR8, LABELS8, 0.5))
    got15_50 = maximal_cliques(build_graph(CORR15, LABELS15, 0.5))
    elapsed = time.perf_counter() - t0
    ok = (
        got5_50 == CLIQUES5_D50
        and got5_71 == CLIQUES5_D71
        and got8_50 == CLIQUES8_D50
        and got15_50 == CLIQUES15_D50
        and elapsed < 5.0
    )
    announce(
        3,
        ok,
        f"5-asset delta 0.5/0.71, 8-asset 0.5, 15-asset 0.5 all exact, "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_ac04_bekk_parameter_recovery():
    t0 = time.perf_counter()
    truth = bekk2()  # a = (0.30, 0.35), b = (0.90, 0.85)
    opts = OptimizerOptions(n_starts=2, seed=0)
    hits = 0
    for seed in range(10):
        panel = bekk_simulate(truth, np.zeros(2), 3000, seed=seed)
        params, _ = bekk_fit(panel.demeaned(), opts=opts)
        if (
            np.abs(params.a_diag - truth.a_diag).max() <= 0.08
            and np.abs(params.b_diag - truth.b_diag).max() <= 0.08
        ):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and elapsed < 600.0
    announce(4, ok, f"{hits}/10 seeds within +-0.08, {elapsed:.0f}s (< 600s)")


def test_ac05_dcc_parameter_recovery():
    t0 = time.perf_counter()
    truth = dcc3(theta1=0.05, theta2=0.90)
    opts = OptimizerOptions(n_starts=2, seed=0)
    hits = 0
    for seed in range(10):
        panel = dcc_simulate(truth, np.zeros(3), 3000, seed=seed)
        params, _ = dcc_fit(panel, opts=opts)
        if (
            abs(params.theta1 - truth.theta1) <= 0.05
            and abs(params.theta2 - truth.theta2) <= 0.05
        ):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and elapsed < 600.0
    announce(5, ok, f"{hits}/10 seeds within +-0.05, {elapsed:.0f}s (< 600s)")


def test_ac06_penalty_optimality_property():
    t0 = time.perf_counter()
    truth = bekk3()
    opts = OptimizerOptions(n_starts=1, seed=0)
    wins = 0
    for seed in range(20):
        panel = bekk_simulate(truth, np.zeros(3), 1000, seed=200 + seed)
        eps = panel.demeaned()
        target = build_target(sample_moments(panel), 0.0)
        h1 = np.cov(eps, rowvar=False, ddof=1)
        plain, _ = bekk_fit(eps, opts=opts, h1=h1)
        modified, _ = bekk_fit(eps, target=target, opts=opts, h1=h1)

        def kl_path(p):
            h = bekk_filter(eps, p, h1)
            return sum(kl_divergence(target.sigma_hat, ht) for ht in h)

        if kl_path(modified) <= kl_path(plain) + 1e-6:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 16 and elapsed < 1200.0
    announce(
        6,
        ok,
        f"penalized path-KL no worse on {wins}/20 datasets (need 16), "
        f"{elapsed:.0f}s (< 1200s)",
    )


def test_ac07_simulation_stationarity():
    t0 = time.perf_counter()
    dynamic = bekk2()
    panel = bekk_simulate(dynamic, np.zeros(2), 50_000, seed=77)
    want = dynamic.unconditional_cov()
    got = np.cov(panel.returns, rowvar=False, ddof=1)
    rel_dyn = np.linalg.norm(got - want) / np.linalg.norm(want)

    gamma = np.diag(np.full(5, 0.02))
    sigma = gamma @ CORR5 @ gamma
    static = BekkParams(
        c_lower=np.linalg.cholesky(sigma),
        a_diag=np.zeros(5),
        b_diag=np.zeros(5),
    )
    panel = bekk_simulate(static, np.zeros(5), 50_000, seed=78)
    got = np.cov(panel.returns, rowvar=False, ddof=1)
    rel_iid = np.linalg.norm(got - sigma) / np.linalg.norm(sigma)
    elapsed = time.perf_counter() - t0
    ok = rel_dyn <= 0.10 and rel_iid <= 0.05 and elapsed < 60.0
    announce(
        7,
        ok,
        f"relative Frobenius error {rel_dyn:.3f} (<= 0.10 dynamic), "
        f"{rel_iid:.3f} (<= 0.05 iid), {elapsed:.0f}s (< 60s)",
    )


def test_ac08_targeting_direction_on_synthetic_market():
    # Report-only: desk-scale loss tables are optimizer- and seed-dependent,
    # so this checks the direction of the effect, not the published numbers.
    t0 = time.perf_counter()
    gamma = np.diag(np.full(5, 0.02))
    sigma = gamma @ CORR5 @ gamma
    a0, b0 = 0.3, 0.9
    truth = BekkParams(
        c_lower=np.linalg.cholesky((1.0 - a0 * a0 - b0 * b0) * sigma),
        a_diag=np.full(5, a0),
        b_diag=np.full(5, b0),
    )
    opts = OptimizerOptions(n_starts=1, seed=0)
    rows = []
    wins = 0
    for seed in range(10):
        panel = bekk_simulate(truth, np.zeros(5), 252, seed=300 + seed, labels=LABELS5)
        moments = sample_moments(panel)
        target = build_target(moments, 0.5)
        eps = panel.demeaned()
        plain, _ = bekk_fit(eps, opts=opts, h1=moments.cov)
        modified, _ = bekk_fit(eps, target=target, opts=opts, h1=moments.cov)
        kls = {}
        for name, p in (("plain", plain), ("modified", modified)):
            sim = bekk_simulate(
                p, panel.mean, 252, seed=seed, h1=moments.cov, labels=panel.labels
            )
            kls[name] = kl_divergence(target.sigma_hat, sample_moments(sim).cov)
        if kls["modified"] < kls["plain"]:
            wins += 1
        rows.append((seed, kls["plain"], kls["modified"]))
    elapsed = time.perf_counter() - t0
    majority = wins > 5
    status = "PASS" if majority else "REPORT"
    print(
        f"[AC08] {status} modified simulated-series KL lower on {wins}/10 "
        f"seeds, {elapsed:.0f}s"
    )
    if not majority:
        for seed, kp, km in rows:
            print(f"        seed {seed}: plain {kp:.4f}  modified {km:.4f}")
    # report-only criterion: diagnostics above, no assertion on the tally


def test_ac09_evaluate_is_byte_deterministic(tmp_path):
    t0 = time.perf_counter()
    panel = bekk_simulate(bekk2(), np.array([0.001, -0.001]), 150, seed=55)
    csv = tmp_path / "panel.csv"
    write_returns_csv(panel, csv)
    args = [
        "evaluate",
        "--input",
        str(csv),
        "--model",
        "bekk,bekk_mod,dcc,dcc_mod",
        "--delta",
        "0.3",
        "--seed",
        "11",
        "--sim-len",
        "80",
        "--starts",
        "1",
    ]
    assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = ra == rb and len(ra) > 0
    announce(9, ok, f"two evaluate runs byte-identical ({len(ra)} bytes), {elapsed:.0f}s")


def test_ac10_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)

    # likelihood invariance under asset permutation, all four objectives
    truth = bekk3()
    panel = bekk_simulate(truth, np.zeros(3), 400, seed=91)
    eps = panel.demeaned()
    moments = sample_moments(panel)
    target = build_target(moments, 0.3)
    perm = np.array([2, 0, 1])
    pm = np.eye(3)[perm]
    perm_panel = ReturnPanel(
        labels=tuple(panel.labels[i] for i in perm), returns=panel.returns[:, perm]
    )
    target_perm = build_target(sample_moments(perm_panel), 0.3)
    cc_perm = pm @ (truth.c_lower @ truth.c_lower.T) @ pm.T
    truth_perm = BekkParams(
        c_lower=np.linalg.cholesky(cc_perm),
        a_diag=truth.a_diag[perm],
        b_diag=truth.b_diag[perm],
    )
    h1 = moments.cov
    h1_perm = pm @ h1 @ pm.T
    gap_bekk = abs(
        bekk_loglik(eps, truth, h1=h1)
        - bekk_loglik(eps[:, perm], truth_perm, h1=h1_perm)
    )
    gap_bekk_mod = abs(
        bekk_modified_loglik(eps, truth, target, h1=h1)
        - bekk_modified_loglik(eps[:, perm], truth_perm, target_perm, h1=h1_perm)
    )

    dp = dcc3()
    z = rng.standard_normal((300, 3))
    dp_perm = DccParams(
        univariate=tuple(dp.univariate[i] for i in perm),
        theta1=dp.theta1,
        theta2=dp.theta2,
        q_bar=pm @ dp.q_bar @ pm.T,
    )
    gap_dcc = abs(
        dcc_stage2_loglik(z, dp) - dcc_stage2_loglik(z[:, perm], dp_perm)
    )
    gap_dcc_mod = abs(
        dcc_modified_loglik(z, dp, target)
        - dcc_modified_loglik(z[:, perm], dp_perm, target_perm)
    )
    gaps = (gap_bekk, gap_bekk_mod, gap_dcc, gap_dcc_mod)

    # every filtered covariance/correlation is PD with the right diagonal
    hpath = bekk_filter(eps, truth, h1)
    _factor_stack_into(hpath, np.empty_like(hpath))  # raises if any H_t is not PD
    rpath = dcc_filter(z, dp)
    ii = np.arange(3)
    unit_diag = bool(np.all(rpath.r[:, ii, ii] == 1.0))
    r_pd = float(np.linalg.eigvalsh(rpath.r).min()) > 0.0

    # dendrogram heights never decrease
    monotone = True
    for corr in [CORR15] + [random_corr(rng, int(rng.integers(3, 10))) for _ in range(10)]:
        dend = complete_linkage(
            corr_distance(corr), tuple(f"V{i}" for i in range(corr.shape[0]))
        )
        h = np.array([m[2] for m in dend.merges])
        monotone = monotone and bool(np.all(np.diff(h) >= -1e-12))

    elapsed = time.perf_counter() - t0
    ok = max(gaps) < 1e-8 and unit_diag and r_pd and monotone and elapsed < 60.0
    announce(
        10,
        ok,
        f"permutation gaps max {max(gaps):.2e} (< 1e-8), filtered paths "
        f"PD/unit-diag {unit_diag and r_pd}, monotone heights {monotone}, "
        f"{elapsed:.0f}s",
    )
