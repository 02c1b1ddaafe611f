import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsearch.genome import (
    DilationGenome,
    SearchSpace,
    build_space,
    format_genome_string,
    genome_to_json,
    parse_genome_string,
    random_genome,
    receptive_field,
)
from rfsearch.globalsearch import crossover_segments, mutate
from rfsearch.oracle import SurrogateFitness, exhaustive_rank


class TestBuildSpace:
    def test_powers_of_two_to_1024(self):
        space = build_space(2, 10, 1024)
        assert space.candidates == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    def test_t_zero_is_singleton(self):
        assert build_space(2, 0, 1024).candidates == (1,)

    def test_clamped_values_are_kept_after_dedup(self):
        # enumerate-and-clamp oracle: 1,3,9,27,81 with cap 30 -> 81 clamps to 30
        expected = sorted({min(3**i, 30) for i in range(5)})
        space = build_space(3, 4, 30)
        assert space.candidates == tuple(expected) == (1, 3, 9, 27, 30)

    def test_cap_below_one_power_collapses(self):
        assert build_space(2, 5, 3).candidates == (1, 2, 3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_space(1, 3, 10)
        with pytest.raises(ValueError):
            build_space(2, -1, 10)
        with pytest.raises(ValueError):
            build_space(2, 3, 0)

    @pytest.mark.parametrize(
        "candidates",
        [(1, 2.0), (True, 2), (1, np.bool_(True)), (1, np.float64(4)), (1, "2"), (1, None)],
        ids=["integral-float", "bool", "numpy-bool", "numpy-float", "string", "none"],
    )
    def test_rejects_bool_and_non_integer_candidates(self, candidates):
        # the operators take int() of candidates unchecked: True would pass as 1
        with pytest.raises(ValueError, match="candidates must be integers"):
            SearchSpace(k=2, T=1, candidates=candidates, max_dilation_cap=4)


class TestRandomGenome:
    def test_singleton_space(self):
        space = build_space(2, 0, 10)
        g = random_genome(space, 5, np.random.default_rng(0))
        assert g.dilations == (1, 1, 1, 1, 1)

    def test_same_seed_reproduces(self):
        space = build_space(2, 2, 100)
        g1 = random_genome(space, 3, np.random.default_rng(42))
        g2 = random_genome(space, 3, np.random.default_rng(42))
        assert g1 == g2

    def test_per_position_frequencies_are_uniform(self):
        space = build_space(2, 2, 100)  # {1, 2, 4}
        rng = np.random.default_rng(7)
        counts = {c: np.zeros(3) for c in space.candidates}
        n = 10_000
        for _ in range(n):
            g = random_genome(space, 3, rng)
            for pos, d in enumerate(g.dilations):
                counts[d][pos] += 1
        for c in space.candidates:
            freq = counts[c] / n
            assert (freq >= 0.30).all() and (freq <= 0.37).all()

    def test_bad_length(self):
        with pytest.raises(ValueError):
            random_genome(build_space(2, 1, 10), 0, np.random.default_rng(0))


class TestReceptiveField:
    def test_width_one_layers_have_unit_field(self):
        g = DilationGenome((5, 17, 300))
        assert receptive_field(g, [1, 1, 1]) == 1

    def test_single_layer(self):
        assert receptive_field(DilationGenome((7,)), [2]) == 8

    def test_stacked(self):
        assert receptive_field(DilationGenome((1, 2, 4)), [3, 3, 3]) == 15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            receptive_field(DilationGenome((1, 2)), [3])


class TestGenomeValidation:
    def test_rejects_nonpositive_dilation(self):
        with pytest.raises(ValueError):
            DilationGenome((1, 0, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DilationGenome(())

    @pytest.mark.parametrize("dil", [(), (0,), (-1,), (1, -4, 2), (np.int64(0),)])
    def test_messages(self, dil):
        match = "at least one gene" if not dil else r"dilations must be >= 1, got \("
        with pytest.raises(ValueError, match=match):
            DilationGenome(dil)

    def test_converts_numpy_ints(self):
        g = DilationGenome((np.int64(4), np.uint8(1), np.int32(512)))
        assert g.dilations == (4, 1, 512)
        assert all(type(d) is int for d in g.dilations)
        assert g == DilationGenome((4, 1, 512))
        assert hash(g) == hash(DilationGenome((4, 1, 512)))

    def test_accepts_any_iterable(self):
        assert DilationGenome(np.array([2, 8])).dilations == (2, 8)
        assert DilationGenome([3, 1]).dilations == (3, 1)

    @pytest.mark.parametrize(
        "dil",
        [(2.9, True), (True,), (2, False), (np.bool_(True),), (2.0,), (np.float64(4),),
         ("12",), (None,)],
        ids=["float-and-bool", "bool", "false", "numpy-bool", "integral-float",
             "numpy-float", "string", "none"],
    )
    def test_rejects_bool_and_non_integer_genes(self, dil):
        # int() would truncate these to another genome: (2.9, True) -> (2, 1)
        with pytest.raises(ValueError, match="dilations must be integers"):
            DilationGenome(dil)


# a space whose candidates are numpy ints: the operators must still hand back
# Python ints, since cache keys, the CSV logs and the JSON files use the genes
NUMPY_SPACE = build_space(np.int64(2), 5, np.int64(16))
INT_SPACE = build_space(2, 5, 16)


def _plain_ints(genome):
    return all(type(d) is int for d in genome.dilations)


def _behaves_as_checked(genome):
    """``genome`` holds a tuple of Python ints, and it and its pickle (the
    ``--jobs N`` pool pickles genomes) compare, hash and print exactly as the
    genome ``DilationGenome`` checks from the same genes."""
    checked = DilationGenome(genome.dilations)
    for g in (genome, pickle.loads(pickle.dumps(genome))):
        assert type(g.dilations) is tuple and _plain_ints(g)
        assert g == checked and hash(g) == hash(checked) and repr(g) == repr(checked)
    return True


class TestGenesArePythonInts:
    """The operators build genomes from genes already checked (slices of
    checked genomes, ``int()`` of a space's candidates) without checking them
    again; what they build must be indistinguishable from a checked genome."""

    def test_numpy_space_has_numpy_candidates(self):
        assert not any(type(c) is int for c in NUMPY_SPACE.candidates)

    @pytest.mark.parametrize("space", [INT_SPACE, NUMPY_SPACE], ids=["int", "numpy"])
    def test_random_genome(self, space):
        rng = np.random.default_rng(0)
        assert all(_behaves_as_checked(random_genome(space, 6, rng)) for _ in range(20))

    def test_crossover_segments(self):
        rng = np.random.default_rng(1)
        a = DilationGenome((np.int64(1), np.int64(2), np.int64(4)))
        b = DilationGenome((8, 16, 1))
        for anchors in [(0, 0), (0, 3), (1, 2)] + [None] * 20:
            assert all(map(_behaves_as_checked, crossover_segments(a, b, rng, anchors)))

    @pytest.mark.parametrize("space", [INT_SPACE, NUMPY_SPACE], ids=["int", "numpy"])
    def test_mutate(self, space):
        rng = np.random.default_rng(2)
        g = random_genome(space, 6, rng)
        changed = 0
        for _ in range(20):
            child = mutate(g, space, 1.0, 0.5, rng)
            assert _behaves_as_checked(child)
            changed += child != g
        assert changed > 0

    def test_exhaustive_rank(self):
        ranked = exhaustive_rank(NUMPY_SPACE, 2, SurrogateFitness((4, 1)))
        assert len(ranked) == len(NUMPY_SPACE.candidates) ** 2
        assert all(_behaves_as_checked(g) for g, _ in ranked)

    def test_genes_serialize(self):
        g = random_genome(NUMPY_SPACE, 4, np.random.default_rng(3))
        assert json.loads(genome_to_json(g))["dilations"] == list(g.dilations)
        assert parse_genome_string(format_genome_string(g)) == g


class TestSerialization:
    def test_round_trip_examples(self):
        g = DilationGenome((1, 8, 64))
        text = genome_to_json(g, kernel_sizes=[3, 3, 3], fitness=0.73125, seed=99)
        assert json.loads(text) == {
            "dilations": [1, 8, 64], "kernel_sizes": [3, 3, 3], "fitness": 0.73125, "seed": 99,
        }

    @settings(max_examples=200, deadline=None)
    @given(
        dil=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20),
        fitness=st.one_of(
            st.none(),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
    )
    def test_round_trip_is_bit_exact(self, dil, fitness):
        doc = json.loads(genome_to_json(DilationGenome(tuple(dil)), fitness=fitness))
        assert doc["dilations"] == dil
        assert repr(doc["fitness"]) == repr(fitness)  # -0.0 stays -0.0

    def test_genome_string_round_trip(self):
        g = DilationGenome((4, 1, 512))
        assert parse_genome_string(format_genome_string(g)) == g
        assert parse_genome_string(" 4, 1 ,512 ") == g

    def test_bad_genome_string(self):
        with pytest.raises(ValueError):
            parse_genome_string("1,two,3")
        with pytest.raises(ValueError):
            parse_genome_string("")
