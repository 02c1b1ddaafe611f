import pytest

from rfsearch.genome import DilationGenome, build_space
from rfsearch.oracle import SurrogateFitness, exhaustive_rank, random_search


TARGET = (4, 1, 2)
SPACE_27 = build_space(2, 2, 100)  # {1, 2, 4}


class TestSurrogate:
    def test_unique_maximum_at_target(self):
        f = SurrogateFitness(TARGET)
        assert f(DilationGenome(TARGET)) == 0.0
        ranked = exhaustive_rank(SPACE_27, 3, f)
        assert ranked[0][0].dilations == TARGET
        assert ranked[0][1] == 0.0
        assert ranked[1][1] < 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SurrogateFitness(TARGET)(DilationGenome((1, 2)))

    def test_deceptive_variant_has_local_optimum(self):
        space = build_space(2, 6, 64)
        f = SurrogateFitness((1, 1), decoy=(64, 64))
        assert f((1, 1)) == 0.0
        # the decoy beats every immediate grid neighbor but not the target
        decoy_val = f((64, 64))
        assert decoy_val < 0.0
        assert decoy_val > f((32, 64))
        assert decoy_val > f((64, 32))
        assert f((1, 1)) > decoy_val
        # wider basin: far from the target the decoy term dominates the blend
        plain = SurrogateFitness((1, 1))
        assert f((16, 16)) > plain((16, 16))

    def test_invalid_decoy_rejected(self):
        with pytest.raises(ValueError):
            SurrogateFitness((1, 1), decoy=(4,))
        with pytest.raises(ValueError):
            SurrogateFitness((1, 1), decoy=(0, 4))
        with pytest.raises(TypeError):  # the decoy alone turns the blend on
            SurrogateFitness((1, 1), deceptive=True, decoy=(4, 4))

    def test_trainer_adapter(self):
        trainer = SurrogateFitness(TARGET).as_trainer()
        fitness, metrics = trainer(DilationGenome(TARGET), 5, 123)
        assert fitness == 0.0 and metrics == {}


class TestExhaustiveRank:
    def test_singleton_space(self):
        space = build_space(2, 0, 10)
        ranked = exhaustive_rank(space, 3, SurrogateFitness((1, 1, 1)))
        assert len(ranked) == 1
        assert ranked[0][0].dilations == (1, 1, 1)

    def test_full_enumeration_is_a_permutation(self):
        ranked = exhaustive_rank(SPACE_27, 3, SurrogateFitness(TARGET))
        genomes = [g.dilations for g, _ in ranked]
        assert len(genomes) == 27
        assert len(set(genomes)) == 27
        fits = [f for _, f in ranked]
        assert fits == sorted(fits, reverse=True)

    def test_oversized_space_refused_with_estimate(self):
        space = build_space(2, 10, 1024)  # 11 candidates
        with pytest.raises(ValueError, match="11\\^8"):
            exhaustive_rank(space, 8, SurrogateFitness((1,) * 8))


class TestRandomSearch:
    def test_budget_one(self):
        best, traj = random_search(SPACE_27, 3, 1, SurrogateFitness(TARGET), seed=0)
        assert len(traj) == 1
        assert traj[0][0] == 1
        assert traj[0][1] == best.fitness

    def test_trajectory_is_monotone(self):
        _, traj = random_search(SPACE_27, 3, 200, SurrogateFitness(TARGET), seed=3)
        bests = [f for _, f in traj]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_large_budget_finds_optimum(self):
        best, _ = random_search(SPACE_27, 3, 500, SurrogateFitness(TARGET), seed=5)
        assert best.genome.dilations == TARGET

    def test_hit_rate_matches_coverage_probability(self):
        # with n i.i.d. draws over n equally likely genomes, the optimum is
        # seen with probability 1 - (1 - 1/n)^n  (~ 1 - 1/e)
        n = 27
        expected = 1.0 - (1.0 - 1.0 / n) ** n
        f = SurrogateFitness(TARGET)
        hits = 0
        reps = 10_000
        for s in range(reps):
            best, _ = random_search(SPACE_27, 3, n, f, seed=s)
            hits += best.genome.dilations == TARGET
        assert abs(hits / reps - expected) < 0.02

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            random_search(SPACE_27, 3, 0, SurrogateFitness(TARGET), seed=0)
