import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsearch import globalsearch
from rfsearch.genome import (
    DilationGenome,
    EvalRecord,
    build_space,
    format_genome_string,
    parse_genome_string,
)
from rfsearch.globalsearch import (
    GlobalConfig,
    crossover_segments,
    derive_eval_seed,
    evaluate,
    mutate,
    run_global_search,
    selection_probabilities,
)
from rfsearch.oracle import SurrogateFitness, exhaustive_rank
from rfsearch.tensorops import WORST_FITNESS, TrainingDiverged

SPACE_3 = build_space(2, 2, 100)  # {1, 2, 4}


class TestSelectionProbabilities:
    def test_already_normalized_positive_fitness(self):
        p = selection_probabilities([0.2, 0.3, 0.5])
        np.testing.assert_allclose(p, [0.2, 0.3, 0.5], rtol=1e-12)

    @pytest.mark.parametrize("c", [5.0, -3.0, 0.0])
    def test_all_equal_gives_uniform(self, c):
        p = selection_probabilities([c, c, c])
        np.testing.assert_allclose(p, [1 / 3] * 3, rtol=1e-12)

    def test_nonpositive_values_are_shifted(self):
        p = selection_probabilities([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(p, [0.0, 1 / 3, 2 / 3], atol=1e-8)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.standard_normal(rng.integers(1, 20)) * 10
            p = selection_probabilities(list(vals))
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p >= 0).all()

    def test_sentinel_fitness_does_not_overflow(self):
        # a diverged candidate shifts everything by ~1.8e308; the survivors
        # become indistinguishable but the distribution must stay valid
        p = selection_probabilities([WORST_FITNESS, 0.5, 0.7])
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) < 1e-12
        assert p[0] <= p[1] == p[2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            selection_probabilities([])


class TestCrossover:
    def test_identical_parents_give_clones(self):
        g = DilationGenome((1, 2, 4, 2))
        rng = np.random.default_rng(0)
        for _ in range(20):
            c1, c2 = crossover_segments(g, g, rng)
            assert c1 == g and c2 == g

    def test_forced_anchors(self):
        a = DilationGenome((1, 1, 1, 1, 1))
        b = DilationGenome((4, 4, 4, 4, 4))
        c1, c2 = crossover_segments(a, b, np.random.default_rng(0), anchors=(1, 4))
        assert c1.dilations == (1, 4, 4, 4, 1)
        assert c2.dilations == (4, 1, 1, 1, 4)

    def test_equal_anchors_clone(self):
        a = DilationGenome((1, 2, 4))
        b = DilationGenome((4, 2, 1))
        c1, c2 = crossover_segments(a, b, np.random.default_rng(0), anchors=(2, 2))
        assert c1 == a and c2 == b

    def test_per_position_multisets_are_preserved(self):
        rng = np.random.default_rng(99)
        space = SPACE_3
        for _ in range(1000):
            da = tuple(space.candidates[i] for i in rng.integers(0, 3, size=6))
            db = tuple(space.candidates[i] for i in rng.integers(0, 3, size=6))
            c1, c2 = crossover_segments(DilationGenome(da), DilationGenome(db), rng)
            for pos in range(6):
                assert {c1.dilations[pos], c2.dilations[pos]} == {da[pos], db[pos]}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crossover_segments(
                DilationGenome((1, 2)), DilationGenome((1, 2, 4)), np.random.default_rng(0)
            )

    def test_bad_anchors_rejected(self):
        g = DilationGenome((1, 2, 4))
        with pytest.raises(ValueError):
            crossover_segments(g, g, np.random.default_rng(0), anchors=(2, 1))


class TestMutate:
    def test_zero_genome_probability_is_identity(self):
        g = DilationGenome((1, 2, 4))
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert mutate(g, SPACE_3, 0.0, 1.0, rng) == g

    def test_singleton_space_all_ones(self):
        space = build_space(2, 0, 10)
        g = DilationGenome((1, 1, 1))
        out = mutate(g, space, 1.0, 1.0, np.random.default_rng(0))
        assert out.dilations == (1, 1, 1)

    def test_gene_change_rate_matches_expectation(self):
        # selected w.p. p_m, each gene resampled w.p. p_s, resample misses the
        # old value w.p. 1 - 1/|candidates|
        p_m = p_s = 0.2
        expected = p_m * p_s * (1.0 - 1.0 / 3.0)
        rng = np.random.default_rng(2024)
        g = DilationGenome((1, 2, 4, 1, 2, 4, 1, 2, 4, 1))
        changed = 0
        trials = 100_000
        for _ in range(trials):
            out = mutate(g, SPACE_3, p_m, p_s, rng)
            changed += sum(a != b for a, b in zip(out.dilations, g.dilations))
        rate = changed / (trials * len(g))
        assert abs(rate - expected) < 0.005

    def test_results_stay_in_space(self):
        rng = np.random.default_rng(6)
        g = DilationGenome((1, 4, 2, 2, 4))
        for _ in range(500):
            out = mutate(g, SPACE_3, 0.7, 0.7, rng)
            assert all(d in SPACE_3.candidates for d in out.dilations)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            mutate(DilationGenome((1,)), SPACE_3, 1.5, 0.2, np.random.default_rng(0))


class TestEvaluate:
    def test_deterministic_given_genome_and_seed(self):
        trainer = SurrogateFitness((1, 2, 4)).as_trainer()
        g = DilationGenome((2, 2, 2))
        r1 = evaluate(g, trainer, 3, seed=17)
        r2 = evaluate(g, trainer, 3, seed=17)
        assert r1.fitness == r2.fitness
        assert r1.epochs_trained == r2.epochs_trained == 3
        assert r1.seed == r2.seed == 17

    def test_surrogate_reduces_to_closed_form(self):
        f = SurrogateFitness((1, 2, 4))
        g = DilationGenome((4, 4, 4))
        rec = evaluate(g, f.as_trainer(), 5, seed=0)
        assert rec.fitness == f(g)

    def test_divergence_becomes_worst_fitness_record(self):
        def bad_trainer(genome, epochs, seed):
            raise TrainingDiverged("boom")

        rec = evaluate(DilationGenome((1,)), bad_trainer, 1, seed=0)
        assert rec.fitness == WORST_FITNESS
        assert rec.metrics.get("diverged") == 1.0

    def test_non_finite_fitness_becomes_worst_record(self):
        def nan_trainer(genome, epochs, seed):
            return float("nan"), {}

        rec = evaluate(DilationGenome((1,)), nan_trainer, 1, seed=0)
        assert rec.fitness == WORST_FITNESS

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            evaluate(DilationGenome((1,)), lambda g, e, s: (0.0, {}), 0, seed=0)


class _CountingTrainer:
    """Picklable surrogate trainer that counts invocations."""

    def __init__(self, target):
        self.fitness = SurrogateFitness(target)
        self.calls = []

    def __call__(self, genome, epochs, seed):
        self.calls.append(genome.dilations)
        return self.fitness(genome), {}


def _config(space, length, **kw):
    defaults = dict(
        space=space,
        genome_length=length,
        iterations=5,
        population=6,
        p_m=0.2,
        p_s=0.2,
        epochs=1,
    )
    defaults.update(kw)
    return GlobalConfig(**defaults)


class TestRunGlobalSearch:
    def test_singleton_space_converges_trivially(self):
        space = build_space(2, 0, 10)
        cfg = _config(space, 3, iterations=1, population=2)
        members, _ = run_global_search(cfg, SurrogateFitness((1, 1, 1)).as_trainer(), 0)
        assert len(members) == 2
        for rec in members:
            assert rec.genome.dilations == (1, 1, 1)

    def test_population_capacity_and_validity(self):
        cfg = _config(SPACE_3, 4, iterations=8, population=5)
        trainer = SurrogateFitness((4, 1, 2, 2)).as_trainer()
        members, trajectory = run_global_search(cfg, trainer, 0)
        assert len(members) <= 5
        assert len(trajectory) == 1 + 8  # generation 0, then 8 generations
        for rec in members:
            assert all(d in SPACE_3.candidates for d in rec.genome.dilations)

    def test_final_population_sorted_descending(self):
        cfg = _config(SPACE_3, 3, iterations=5)
        members, _ = run_global_search(cfg, SurrogateFitness((2, 2, 2)).as_trainer(), 0)
        fits = [r.fitness for r in members]
        assert fits == sorted(fits, reverse=True)

    def test_monotone_elitism(self):
        cfg = _config(SPACE_3, 5, iterations=12)
        _, trajectory = run_global_search(cfg, SurrogateFitness((4, 2, 1, 2, 4)).as_trainer(), 3)
        bests = [b for _, b in trajectory]
        assert len(bests) == 13  # init + one per generation
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_duplicates_are_cached(self):
        # singleton space: every candidate is the all-ones genome
        space = build_space(2, 0, 10)
        trainer = _CountingTrainer((1, 1, 1))
        cfg = _config(space, 3, iterations=6, population=4)
        run_global_search(cfg, trainer, 0)
        assert trainer.calls == [(1, 1, 1)]

    def test_budget_equals_unique_genomes(self):
        trainer = _CountingTrainer((4, 1, 2))
        cfg = _config(SPACE_3, 3, iterations=10, population=6)
        run_global_search(cfg, trainer, 11)
        assert len(trainer.calls) == len(set(trainer.calls))

    def test_bitwise_deterministic_rerun(self):
        cfg = _config(SPACE_3, 4, iterations=6)
        trainer = SurrogateFitness((1, 4, 2, 1)).as_trainer()
        members1, _ = run_global_search(cfg, trainer, 21)
        members2, _ = run_global_search(cfg, trainer, 21)
        assert [(r.genome.dilations, r.fitness) for r in members1] == [
            (r.genome.dilations, r.fitness) for r in members2
        ]

    def test_eval_seed_depends_on_genome_content(self):
        a = derive_eval_seed(0, DilationGenome((1, 2)))
        b = derive_eval_seed(0, DilationGenome((2, 1)))
        c = derive_eval_seed(1, DilationGenome((1, 2)))
        assert a != b and a != c
        assert a == derive_eval_seed(0, DilationGenome((1, 2)))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_seed_is_the_genome_s_eval_seed(self, tmp_path, jobs):
        # the batch derivation of a generation's seeds against the one-genome form
        cfg = _config(SPACE_3, 5, iterations=6, population=7, p_m=0.8, p_s=0.3)
        members, _ = run_global_search(
            cfg, SurrogateFitness((4, 1, 2, 2, 1)).as_trainer(), 13, jobs=jobs, log_dir=tmp_path
        )
        assert all(r.seed == derive_eval_seed(13, r.genome) for r in members)
        with open(tmp_path / "population_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 * 7
        assert len({r["genome"] for r in rows}) > 7
        for row in rows:
            genome = parse_genome_string(row["genome"])
            assert int(row["seed"]) == derive_eval_seed(13, genome)

    def test_finds_optimum_on_small_space(self):
        # light version of the acceptance run: 20 seeds on the 27-genome space
        target = (4, 1, 2)
        best_true = exhaustive_rank(SPACE_3, 3, SurrogateFitness(target))[0][0]
        hits = 0
        for seed in range(20):
            cfg = _config(SPACE_3, 3, iterations=10, population=8, p_m=0.8, p_s=0.3)
            members, _ = run_global_search(cfg, SurrogateFitness(target).as_trainer(), seed)
            hits += members[0].genome.dilations == best_true.dilations
        assert hits >= 18

    def test_absorbs_diverged_candidates(self):
        class FlakyTrainer:
            def __call__(self, genome, epochs, seed):
                if genome.dilations[0] == 4:
                    raise TrainingDiverged("unstable")
                return float(sum(genome.dilations)), {}

        cfg = _config(SPACE_3, 2, iterations=4)
        members, _ = run_global_search(cfg, FlakyTrainer(), 2)
        assert all(np.isfinite(r.fitness) for r in members)

    def test_returned_results_match_the_log_files(self, tmp_path):
        cfg = _config(SPACE_3, 4, iterations=6)
        members, trajectory = run_global_search(
            cfg, SurrogateFitness((4, 1, 2, 2)).as_trainer(), 5, log_dir=tmp_path
        )
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["budget"]), float(r["running_best_fitness"])) for r in rows] == trajectory
        assert {(r["seed"], r["method"]) for r in rows} == {("5", "ga")}
        best = json.loads((tmp_path / "best.json").read_text())
        assert best["dilations"] == list(members[0].genome.dilations)
        assert (best["fitness"], best["seed"]) == (members[0].fitness, members[0].seed)

    def test_population_log_numbers_candidates_in_evaluation_order(self, tmp_path, monkeypatch):
        # the candidates of each generation, in the order they were made:
        # random genomes at generation 0, mutated offspring after it
        made = []

        def recording(real):
            def spy(*args):
                made.append(real(*args))
                return made[-1]
            return spy

        for name in ("random_genome", "mutate"):
            monkeypatch.setattr(globalsearch, name, recording(getattr(globalsearch, name)))
        fmt = globalsearch.format_genome_string
        cfg = _config(SPACE_3, 5, iterations=12, population=5, p_m=0.8, p_s=0.3)
        members, _ = run_global_search(cfg, SurrogateFitness((4, 1, 2, 2, 1)).as_trainer(), 2,
                                       log_dir=tmp_path)
        with open(tmp_path / "population_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(made) == 5 * 13
        assert [int(r["candidate_id"]) for r in rows] == list(range(len(rows)))
        assert [int(r["generation"]) for r in rows] == [i // 5 for i in range(len(rows))]
        assert [r["genome"] for r in rows] == [fmt(g) for g in made]
        assert {fmt(m.genome) for m in members} <= {r["genome"] for r in rows}
        # clones share one record: on the singleton space every member is one
        cfg = _config(build_space(2, 0, 10), 3, iterations=3, population=4)
        members, _ = run_global_search(cfg, SurrogateFitness((1, 1, 1)).as_trainer(), 0)
        assert len(members) == 4 and all(m is members[0] for m in members)

    def test_population_log_rows_are_the_bytes_csv_writer_writes(self, tmp_path):
        records = [
            EvalRecord(DilationGenome((64,)), -0.25, 3, 2**64 - 1, wall_time_s=1.5),
            EvalRecord(DilationGenome((1, 2, 4)), WORST_FITNESS, 1, 0, wall_time_s=0.0),
            EvalRecord(DilationGenome((512, 1)), 1e-300, 12, 2**63 + 5, wall_time_s=12.3456789),
            EvalRecord(DilationGenome((3,)), -0.0, 1, 7, wall_time_s=2e-7),
        ]
        logs = globalsearch._Logs(tmp_path, 9, None)
        logs.log_records(0, records[:1])
        logs.log_records(17, records[1:])
        logs.close()
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(
            ["generation", "candidate_id", "genome", "fitness", "epochs", "seed", "wall_time_s"])
        for i, r in enumerate(records):
            writer.writerow([0 if i == 0 else 17, i, format_genome_string(r.genome),
                             repr(r.fitness), r.epochs_trained, r.seed,
                             f"{r.wall_time_s:.6f}"])
        written = (tmp_path / "population_log.csv").read_bytes()
        assert written == expected.getvalue().encode()
        # one gene unquoted, several quoted, the sentinel and 64-bit seeds whole
        assert b'\r\n0,0,64,-0.25,3,18446744073709551615,1.500000\r\n' in written
        assert b'\r\n17,1,"1,2,4",-1.7976931348623157e+308,1,0,0.000000\r\n' in written

    def test_best_json_is_replaced_only_when_the_best_changes(self, tmp_path, monkeypatch):
        offered, replaced = [], []
        log_best = globalsearch._Logs.log_best
        real_replace = globalsearch.os.replace

        def spy_log_best(self, record):
            offered.append((record.genome.dilations, record.fitness, record.seed))
            log_best(self, record)
            best = json.loads((tmp_path / "best.json").read_text())
            assert (tuple(best["dilations"]), best["fitness"], best["seed"]) == offered[-1]

        def spy_replace(src, dst):
            replaced.append((Path(src).name, Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(globalsearch._Logs, "log_best", spy_log_best)
        monkeypatch.setattr(globalsearch.os, "replace", spy_replace)
        cfg = _config(SPACE_3, 5, iterations=12, p_m=0.8, p_s=0.3)
        run_global_search(cfg, SurrogateFitness((4, 1, 2, 2, 1)).as_trainer(), 2,
                          log_dir=tmp_path)
        assert len(offered) == 1 + 12  # one offer per checkpoint
        changes = 1 + sum(a != b for a, b in zip(offered, offered[1:]))
        assert 1 < changes < len(offered)
        assert replaced == [("best.json.tmp", "best.json")] * changes

    def test_failed_search_leaves_the_last_best_json(self, tmp_path):
        """A trainer that raises in generation k leaves the best of
        generations 0..k-1 in ``best.json``, and no temporary file."""
        target, seed, k = (4, 1, 2, 2, 1), 2, 4
        done = _CountingTrainer(target)
        members, trajectory = run_global_search(
            _config(SPACE_3, 5, iterations=k - 1, p_m=0.8, p_s=0.3), done, seed,
            log_dir=tmp_path / "done",
        )
        assert trajectory[-1][1] > trajectory[0][1]  # the best moved after generation 0
        longer = _CountingTrainer(target)
        run_global_search(_config(SPACE_3, 5, iterations=k, p_m=0.8, p_s=0.3), longer, seed)
        assert len(longer.calls) > len(done.calls)  # generation k trains something new

        class Stop(Exception):
            pass

        class RaisingTrainer(_CountingTrainer):
            def __call__(self, genome, epochs, seed):
                if len(self.calls) == len(done.calls):
                    raise Stop
                return super().__call__(genome, epochs, seed)

        with pytest.raises(Stop):
            run_global_search(
                _config(SPACE_3, 5, iterations=k + 3, p_m=0.8, p_s=0.3), RaisingTrainer(target),
                seed, log_dir=tmp_path / "failed",
            )
        failed = tmp_path / "failed"
        assert (failed / "best.json").read_bytes() == (tmp_path / "done" / "best.json").read_bytes()
        best = json.loads((failed / "best.json").read_text())
        assert best["dilations"] == list(members[0].genome.dilations)
        assert (best["fitness"], best["seed"]) == (members[0].fitness, members[0].seed)
        assert sorted(p.name for p in failed.iterdir()) == [
            "best.json", "population_log.csv", "trajectory.csv"
        ]

    def test_evaluate_is_looked_up_at_call_time(self, monkeypatch):
        # a set-up probe replaces the module attribute to stop the search
        # at its first candidate
        class Sentinel(Exception):
            pass

        calls = []

        def raiser(*args):
            calls.append(args)
            raise Sentinel

        monkeypatch.setattr(globalsearch, "evaluate", raiser)
        with pytest.raises(Sentinel):
            run_global_search(_config(SPACE_3, 3), SurrogateFitness((1, 2, 4)).as_trainer(), 0,
                              jobs=1)
        assert len(calls) == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            _config(SPACE_3, 3, population=1)
        with pytest.raises(ValueError):
            _config(SPACE_3, 3, iterations=0)
        with pytest.raises(ValueError):
            _config(SPACE_3, 3, p_m=1.2)


@settings(max_examples=100, deadline=None)
@given(
    u=st.integers(min_value=0, max_value=6),
    v=st.integers(min_value=0, max_value=6),
    da=st.lists(st.sampled_from([1, 2, 4]), min_size=6, max_size=6),
    db=st.lists(st.sampled_from([1, 2, 4]), min_size=6, max_size=6),
)
def test_crossover_property_segment_swap(u, v, da, db):
    if u > v:
        u, v = v, u
    a, b = DilationGenome(tuple(da)), DilationGenome(tuple(db))
    c1, c2 = crossover_segments(a, b, np.random.default_rng(0), anchors=(u, v))
    for pos in range(6):
        if u <= pos < v:
            assert c1.dilations[pos] == db[pos] and c2.dilations[pos] == da[pos]
        else:
            assert c1.dilations[pos] == da[pos] and c2.dilations[pos] == db[pos]
