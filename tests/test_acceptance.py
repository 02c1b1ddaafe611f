"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5's refinement clause checks the expectation-guided local step on
the lagged-copy task.  Two facts shape it:

* The copy task's i.i.d. symbols give branches at lags != 12 no signal, so
  local search can only be steered to 12 when 12 is inside the branch set.
  With delta fraction 0.1 and 3 branches that means starting at 11
  ({10, 11, 12}, lag approached from below) or 13 ({12, 13, 14}, from above);
  from 10 ({9, 10, 11}) no expectation rule can see the lag.  Reaching the
  lag from further away is the global stage's job.
* The integer step is stochastic rounding, floor(E + u) with u ~ U[0, 1),
  whose mean is E.  A plain floor of E would need PMF mass exactly 1.0 on
  the top branch to climb across a unit-spaced set, and would leave the lag
  on any tiny downward lean of a near-symmetric PMF around it.
"""

import functools
import json
import time

import numpy as np
from scipy import stats

from oracles import central_difference, max_rel_error, naive_dilated_conv1d
from rfsearch.cli import main
from rfsearch.genome import DilationGenome, build_space
from rfsearch.globalsearch import GlobalConfig, run_global_search
from rfsearch.localsearch import (
    LocalConfig,
    MultiDilatedLayerState,
    ParallelLayer,
    ParallelStructure,
    expected_dilation,
    multi_dilated_backward,
    multi_dilated_forward,
    parallel_param_count,
    pmf,
    run_local_search,
)
from rfsearch.network import (
    DilatedNet,
    LayerSpec,
    NetworkSpec,
    Trainer,
    TrainSettings,
    count_parameters,
)
from rfsearch.oracle import SurrogateFitness, exhaustive_rank, random_search
from rfsearch.tasks import TaskSpec, generate
from rfsearch.tensorops import (
    ConvKernel,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
    relu,
    softmax_nll_loss,
)


def _announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} {detail}")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    tol, n_instances = 1e-4, 50
    worst = {}

    def check(label, err):
        worst[label] = max(worst.get(label, 0.0), err)
        assert err < tol, f"{label}: rel error {err}"

    for i in range(n_instances):
        rng = np.random.default_rng(1000 + i)
        B, Cin, Cout = 2, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        T = int(rng.integers(8, 14))
        # dilated conv, both paddings
        K = int(rng.integers(1, 4))
        mode = "causal" if i % 2 == 0 else "centered"
        if mode == "centered":
            K = K | 1  # odd
        d = int(rng.integers(1, max(2, (T - 1) // max(1, K - 1))))
        x = rng.standard_normal((B, Cin, T))
        kern = ConvKernel(rng.standard_normal((Cout, Cin, K)), rng.standard_normal(Cout))
        # probes scaled so the scalar loss stays O(1): keeps the finite
        # difference round-off well below the 1e-4 tolerance
        probe = rng.standard_normal((B, Cout, T)) / (B * Cout * T)

        def conv_loss():
            return float((dilated_conv1d_forward(x, kern, d, mode)[0] * probe).sum())

        _, tape = dilated_conv1d_forward(x, kern, d, mode)
        gx, gw, gb = dilated_conv1d_backward(tape, probe)
        check("conv/x", max_rel_error(gx, central_difference(conv_loss, x)))
        check("conv/w", max_rel_error(gw, central_difference(conv_loss, kern.weights)))
        check("conv/b", max_rel_error(gb, central_difference(conv_loss, kern.bias)))

        # relu
        xr = rng.standard_normal((B, Cin, T))
        pr = rng.standard_normal(xr.shape) / xr.size

        def relu_loss():
            return float((relu(xr) * pr).sum())

        ga = np.where(xr > 0, pr, 0.0)
        check("relu", max_rel_error(ga, central_difference(relu_loss, xr)))

        # residual conv block inside a network
        spec = NetworkSpec(
            in_channels=Cin,
            layers=(LayerSpec(3, Cin, residual=True),),
            num_classes=2,
        )
        net = DilatedNet(spec, DilationGenome((max(1, d // 2),)), rng)
        y = rng.integers(0, 2, size=(B, T))

        def res_loss():
            return softmax_nll_loss(net.forward(x), y)[0]

        out = net.forward(x, train=True)
        _, gl = softmax_nll_loss(out, y)
        grads = net.backward(gl)
        for p, g in zip(net.parameters(), grads):
            check("residual", max_rel_error(g, central_difference(res_loss, p)))

        # multi-dilated layer, each pmf kind
        kind = ("abs", "softmax", "sigmoid")[i % 3]
        w = rng.standard_normal(3) + np.array([1.2, -1.2, 0.8])
        dils = tuple(sorted(set(int(v) for v in rng.integers(1, max(2, T // 2), 3))))
        w = w[: len(dils)]
        state = MultiDilatedLayerState(kern, dils, w, pmf_kind=kind)
        pm = rng.standard_normal((B, Cout, T)) / (B * Cout * T)

        def md_loss():
            return float((multi_dilated_forward(x, state)[0] * pm).sum())

        _, mtape = multi_dilated_forward(x, state)
        mgx, mgw, mgb, mgc = multi_dilated_backward(mtape, pm)
        check(f"multi/{kind}/x", max_rel_error(mgx, central_difference(md_loss, x)))
        check(f"multi/{kind}/w", max_rel_error(mgw, central_difference(md_loss, kern.weights)))
        check(f"multi/{kind}/c", max_rel_error(mgc, central_difference(md_loss, state.coefficients)))

        # losses
        logits = rng.standard_normal((B, 3, T))
        targets = rng.integers(0, 3, size=(B, T))

        def nll():
            return softmax_nll_loss(logits, targets)[0]

        _, gl2 = softmax_nll_loss(logits, targets)
        check("nll", max_rel_error(gl2, central_difference(nll, logits)))

    elapsed = time.time() - t0
    ok = elapsed < 60.0
    _announce(1, "gradient suite", ok,
              f"max rel err {max(worst.values()):.2e} over {n_instances} instances/layer, "
              f"{elapsed:.1f}s")
    assert ok, f"gradient suite took {elapsed:.1f}s (budget 60s)"


# ---------------------------------------------------------------------------
# 2. PMF / forward / expectation exactness
# ---------------------------------------------------------------------------


def test_criterion_2_pmf_forward_expectation_exactness():
    t0 = time.time()
    rng = np.random.default_rng(2)
    # PMF normalization: sums to 1 +/- 1e-12 for every kind
    for kind in ("abs", "softmax", "sigmoid"):
        for _ in range(200):
            w = rng.standard_normal(int(rng.integers(1, 8))) * 3
            if kind == "abs" and not np.abs(w).sum():
                continue
            a = pmf(w, kind)
            assert abs(a.sum() - 1.0) <= 1e-12
            assert (a >= 0).all()

    # forward equals the independent branch-sum oracle within 1e-10 relative
    for trial in range(10):
        rng_t = np.random.default_rng(100 + trial)
        x = rng_t.standard_normal((2, 3, 22))
        kern = ConvKernel(rng_t.standard_normal((4, 3, 3)), rng_t.standard_normal(4))
        w = rng_t.standard_normal(3) + 1.0
        dils = (1 + trial % 3, 4 + trial % 5, 9 + trial)
        state = MultiDilatedLayerState(kern, dils, w)
        out = multi_dilated_forward(x, state)[0]
        alphas = np.abs(w) / np.abs(w).sum()
        oracle = sum(
            a * naive_dilated_conv1d(x, kern.weights, kern.bias, dd)
            for a, dd in zip(alphas, dils)
        )
        assert max_rel_error(out, oracle) < 1e-10

    # expectation update: hand arithmetic, exact
    assert expected_dilation((9, 10, 11), [1 / 3, 1 / 3, 1 / 3]) == 10
    assert expected_dilation((9, 10, 11), [0.5, 0.3, 0.2]) == 9
    assert expected_dilation((1, 2), [0.99, 0.01]) == 1
    # rounding offset u: floor(9.7 + u) is 9 below u = 0.3 and 10 from it on
    assert expected_dilation((9, 10, 11), [0.5, 0.3, 0.2], u=0.29) == 9
    assert expected_dilation((9, 10, 11), [0.5, 0.3, 0.2], u=0.31) == 10
    # E = 11.998 around 12: floor leaves the lag, any u above 0.002 keeps it
    lean = [0.170, 0.662, 0.168]
    assert expected_dilation((11, 12, 13), lean) == 11
    assert expected_dilation((11, 12, 13), lean, u=0.0021) == 12
    assert expected_dilation((11, 12, 13), lean, u=0.999) == 12
    # mean over n evenly spaced offsets is E to within 1/n
    n = 1000
    mean = np.mean([expected_dilation((9, 10, 11), [0.5, 0.3, 0.2], u=k / n) for k in range(n)])
    assert abs(mean - 9.7) <= 1 / n

    elapsed = time.time() - t0
    _announce(2, "pmf/forward/expectation exactness", True, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. genetic search finds the oracle optimum
# ---------------------------------------------------------------------------


def test_criterion_3_global_search_finds_oracle_optimum():
    t0 = time.time()
    space = build_space(2, 2, 4)  # {1, 2, 4}
    target = (4, 1, 2)
    fitness = SurrogateFitness(target)
    optimum = exhaustive_rank(space, 3, fitness)[0][0].dilations
    hits = 0
    monotone_everywhere = True
    for seed in range(100):
        cfg = GlobalConfig(
            space=space, genome_length=3, iterations=10, population=8,
            p_m=0.8, p_s=0.3, epochs=1,
        )
        members, trajectory = run_global_search(cfg, fitness.as_trainer(), seed)
        hits += members[0].genome.dilations == optimum
        bests = [b for _, b in trajectory]
        monotone_everywhere &= all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    elapsed = time.time() - t0
    ok = hits >= 95 and monotone_everywhere and elapsed < 30.0
    _announce(3, "genetic search vs exhaustive oracle", ok,
              f"optimum found in {hits}/100 seeds, monotone={monotone_everywhere}, "
              f"{elapsed:.1f}s")
    assert hits >= 95
    assert monotone_everywhere
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. genetic search dominates random search
# ---------------------------------------------------------------------------


def test_criterion_4_ga_dominates_random_search():
    t0 = time.time()
    space = build_space(2, 10, 1024)
    target = (1, 4, 16, 128, 512, 64, 2, 8)
    fitness = SurrogateFitness(target)
    length, M, N, seeds = 8, 12, 20, 20
    ga_curves, rnd_curves = [], []
    for s in range(seeds):
        cfg = GlobalConfig(
            space=space, genome_length=length, iterations=N, population=M,
            p_m=0.8, p_s=0.3, epochs=1,
        )
        _, traj = run_global_search(cfg, fitness.as_trainer(), s)
        budgets = [b for b, _ in traj]
        ga_curves.append([f for _, f in traj])
        _, rtraj = random_search(space, length, budgets[-1], fitness, seed=10_000 + s)
        running = dict(rtraj)
        rnd_curves.append([running[b] for b in budgets])
    ga = np.asarray(ga_curves)
    rnd = np.asarray(rnd_curves)
    dominance = bool(
        (ga.mean(axis=0)[3:] >= rnd.mean(axis=0)[3:]).all()
    )
    std_ok = bool(ga[:, -1].std() <= rnd[:, -1].std())
    elapsed = time.time() - t0
    ok = dominance and std_ok and elapsed < 120.0
    _announce(4, "GA-vs-random trend", ok,
              f"mean dominance(gen>2)={dominance}, final std GA {ga[:, -1].std():.2f} "
              f"<= random {rnd[:, -1].std():.2f}: {std_ok}, {elapsed:.1f}s")
    assert dominance
    assert std_ok
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. local search on the lagged-copy task
# ---------------------------------------------------------------------------


def _lag12_setup():
    task = TaskSpec(
        kind="lagged_copy", sequence_length=64, train_size=512, val_size=256,
        lag=12, num_symbols=8, seed=0,
    )
    data = generate(task)
    net_spec = NetworkSpec(
        in_channels=8, layers=(LayerSpec(kernel_size=2, channels=16),), num_classes=8
    )
    return data, net_spec


def test_criterion_5a_per_dilation_grid_oracle():
    t0 = time.time()
    data, net_spec = _lag12_setup()
    trainer = Trainer(data, net_spec, TrainSettings(learning_rate=0.02), seed=0)
    accs = {}
    for d in range(8, 17):
        accs[d], _ = trainer(DilationGenome((d,)), epochs=6, seed=42)
    best_d = max(accs, key=accs.get)
    others = [accs[d] for d in accs if d != 12]
    ok = best_d == 12 and accs[12] > 0.99 and max(others) < 0.5
    elapsed = time.time() - t0
    _announce("5a", "per-dilation grid oracle", ok,
              f"argmax d={best_d}, acc(12)={accs[12]:.3f}, max other={max(others):.3f}, "
              f"{elapsed:.1f}s")
    assert ok


def test_criterion_5b_local_search_reaches_lag_12():
    # Starts 11 and 13 are the two whose branch set holds the lag (see module
    # docstring); each must reach 12 in >= 9 of 10 seeds.  Delta fraction
    # 0.1, 3 branches, at most 6 refinement iterations of 3 epochs.
    t0 = time.time()
    data, net_spec = _lag12_setup()
    cfg = LocalConfig(delta_fraction=0.1, branches=3, iterations=6, epochs_per_iteration=3)
    finals = {}
    for start in (11, 13):
        finals[start] = []
        for seed in range(10):
            trainer = Trainer(data, net_spec, TrainSettings(learning_rate=0.02), seed=seed)
            result, _ = run_local_search(DilationGenome((start,)), cfg, trainer, seed=seed)
            finals[start].append(result.dilations[0])
    hits = {start: sum(d == 12 for d in f) for start, f in finals.items()}
    elapsed = time.time() - t0
    ok = all(h >= 9 for h in hits.values()) and elapsed < 300.0
    detail = "; ".join(
        f"from {start}: final==12 in {hits[start]}/10 seeds (finals={finals[start]})"
        for start in finals
    )
    _announce("5b", "local search convergence to lag 12", ok, f"{detail}, {elapsed:.1f}s")
    assert elapsed < 300.0
    for start, h in hits.items():
        assert h >= 9, (
            f"from start {start} the final dilation reached 12 in {h}/10 seeds "
            f"(finals={finals[start]}); the stochastically rounded expectation "
            "step should settle on the lag once it is inside the branch set"
        )


# ---------------------------------------------------------------------------
# 6 & 7. branch-count insensitivity and PMF-kind trend on the synthetic suite
# ---------------------------------------------------------------------------

_SUITE_NET = NetworkSpec(
    in_channels=1,
    layers=(LayerSpec(kernel_size=2, channels=16), LayerSpec(kernel_size=2, channels=16)),
    num_classes=4,
)


@functools.cache
def _suite_final_fitness(branches: int, pmf_kind: str, seed: int) -> float:
    """One synthetic-suite replicate: refine on multiscale_sum, retrain the
    refined genome from scratch, report validation accuracy.

    A pure function of its arguments, so it is computed once per process:
    criterion 6's S = 3 column and criterion 7's abs column are the same ten
    replicates."""
    task = TaskSpec(
        kind="multiscale_sum", sequence_length=96, train_size=512, val_size=256,
        windows=(4, 32), seed=seed,
    )
    data = generate(task)
    cfg = LocalConfig(
        delta_fraction=0.1, branches=branches, iterations=3, epochs_per_iteration=2,
        pmf_kind=pmf_kind,
    )
    trainer = Trainer(data, _SUITE_NET, TrainSettings(learning_rate=0.02), seed=seed)
    genome, _ = run_local_search(DilationGenome((4, 28)), cfg, trainer, seed=seed)
    fitness, _, _ = trainer.train_structure(genome, epochs=8, seed=5000 + seed)
    return fitness


def test_criterion_6_branch_count_insensitivity():
    t0 = time.time()
    seeds = range(10)
    results = {
        S: np.array([_suite_final_fitness(S, "abs", s) for s in seeds]) for S in (2, 3, 4)
    }
    means = {S: v.mean() for S, v in results.items()}
    pooled = float(np.sqrt(np.mean([v.var(ddof=1) for v in results.values()])))
    gap = max(means.values()) - min(means.values())
    elapsed = time.time() - t0
    ok = gap <= pooled and elapsed < 900.0
    detail = ", ".join(f"S={S}: {v.mean():.4f}+/-{v.std(ddof=1):.4f}" for S, v in results.items())
    _announce(6, "branch-count insensitivity", ok,
              f"{detail}; max gap {gap:.4f} <= pooled std {pooled:.4f}, {elapsed:.0f}s")
    assert gap <= pooled, f"means {means} differ by {gap} > pooled std {pooled}"
    assert elapsed < 900.0


def test_criterion_7_pmf_kind_trend_report(tmp_path):
    # Trend check reported with means and stds; a failed trend is reported
    # explicitly rather than hidden (report, not a hard assertion).
    t0 = time.time()
    seeds = range(10)
    results = {
        kind: np.array([_suite_final_fitness(3, kind, s) for s in seeds])
        for kind in ("abs", "softmax", "sigmoid")
    }
    means = {k: float(v.mean()) for k, v in results.items()}
    stds = {k: float(v.std(ddof=1)) for k, v in results.items()}
    trend_holds = means["abs"] >= means["softmax"] and means["abs"] >= means["sigmoid"]
    elapsed = time.time() - t0
    report = tmp_path / "pmf_trend_report.txt"
    lines = [
        f"{k}: mean={means[k]:.6f} std={stds[k]:.6f} n={len(results[k])}"
        for k in ("abs", "softmax", "sigmoid")
    ]
    lines.append(f"trend abs >= softmax and abs >= sigmoid: {trend_holds}")
    report.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    _announce(7, "pmf-kind trend (report)",
              True,
              f"TREND {'HOLDS' if trend_holds else 'FAILS'}: " + "; ".join(
                  f"{k}={means[k]:.4f}" for k in means) + f", {elapsed:.0f}s")
    # the criterion is the report itself; it must be complete and finite
    assert all(np.isfinite(v).all() for v in results.values())
    assert elapsed < 1200.0


# ---------------------------------------------------------------------------
# 8. parallel finalization
# ---------------------------------------------------------------------------


def test_criterion_8_parallel_finalization():
    t0 = time.time()
    # exact extra-parameter accounting
    structure = ParallelStructure(
        (
            ParallelLayer((3, 4, 5), (0.3, 0.4, 0.3)),
            ParallelLayer((25, 28), (0.5, 0.5)),
        )
    )
    task = TaskSpec(
        kind="multiscale_sum", sequence_length=96, train_size=512, val_size=256,
        windows=(4, 32), seed=0,
    )
    data = generate(task)
    trainer0 = Trainer(data, _SUITE_NET, TrainSettings(learning_rate=0.02), seed=0)
    net_p = trainer0.build_structure_net(structure, np.random.default_rng(0))
    net_s = trainer0.build_structure_net(structure.genome(), np.random.default_rng(0))
    extra = count_parameters(net_p) - count_parameters(net_s)
    count_ok = extra == parallel_param_count(structure) == 5

    # paired comparison: parallel-finalized vs single-branch-finalized
    cfg = LocalConfig(
        delta_fraction=0.1, branches=3, iterations=3, epochs_per_iteration=2,
        finalize_parallel=True,
    )
    par, single = [], []
    for seed in range(10):
        trainer = Trainer(data, _SUITE_NET, TrainSettings(learning_rate=0.02), seed=seed)
        searched, _ = run_local_search(DilationGenome((4, 28)), cfg, trainer, seed=seed)
        f_par, _, _ = trainer.train_structure(searched, epochs=8, seed=1000 + seed)
        f_single, _, _ = trainer.train_structure(searched.genome(), epochs=8, seed=1000 + seed)
        par.append(f_par)
        single.append(f_single)
    par = np.asarray(par)
    single = np.asarray(single)
    test = stats.ttest_rel(par, single, alternative="greater")
    significant = bool(test.pvalue < 0.05 and par.mean() > single.mean())
    elapsed = time.time() - t0
    ok = count_ok and significant and elapsed < 900.0
    _announce(8, "parallel finalization", ok,
              f"extra params exact={count_ok}, parallel {par.mean():.4f} vs single "
              f"{single.mean():.4f}, one-sided paired p={test.pvalue:.2e}, {elapsed:.0f}s")
    assert count_ok
    assert significant
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 9. CLI determinism across reruns and worker counts
# ---------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    config = {
        "master_seed": 17,
        "output_dir": None,  # filled per run
        "task": {
            "kind": "lagged_copy", "sequence_length": 32, "train_size": 96,
            "val_size": 48, "lag": 4, "num_symbols": 4, "seed": 2,
        },
        "network": {"layers": [{"kernel_size": 2, "channels": 8}]},
        "training": {"learning_rate": 0.02, "batch_size": 32},
        "global": {"iterations": 3, "population": 4, "epochs": 1, "k": 2, "T": 4,
                   "p_m": 0.5, "p_s": 0.3},
    }

    def run(tag, jobs):
        out = tmp_path / tag
        config["output_dir"] = str(out)
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(config))
        assert main(["global", "--config", str(path), "--jobs", str(jobs)]) == 0
        return (
            (out / "best.json").read_bytes(),
            (out / "trajectory.csv").read_bytes(),
        )

    best_a, traj_a = run("jobs1", 1)
    best_b, traj_b = run("jobs1-again", 1)
    best_c, traj_c = run("jobs4", 4)
    rerun_ok = best_a == best_b and traj_a == traj_b
    jobs_ok = best_a == best_c and traj_a == traj_c

    # surrogate smoke run finishes fast and writes best.json
    smoke = {
        "master_seed": 5,
        "output_dir": str(tmp_path / "smoke"),
        "surrogate": {"target": [1, 4, 2, 8]},
        "global": {"iterations": 6, "population": 6, "p_m": 0.5, "p_s": 0.3,
                   "epochs": 1, "k": 2, "T": 4},
    }
    spath = tmp_path / "smoke.json"
    spath.write_text(json.dumps(smoke))
    t0 = time.time()
    assert main(["global", "--config", str(spath)]) == 0
    smoke_elapsed = time.time() - t0
    smoke_ok = smoke_elapsed < 10.0 and (tmp_path / "smoke" / "best.json").exists()

    ok = rerun_ok and jobs_ok and smoke_ok
    _announce(9, "CLI determinism", ok,
              f"rerun identical={rerun_ok}, jobs 1 vs 4 identical={jobs_ok}, "
              f"surrogate smoke {smoke_elapsed:.1f}s")
    assert rerun_ok
    assert jobs_ok
    assert smoke_ok
