import contextlib
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsearch.seeding import derive_rng, derive_seed, derive_seeds

EDGE_INTS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**96 + 7]


def _reference_seed(master_seed, *tags):
    """The derivation written out: SeedSequence over the plain list of ints."""
    entropy = [int(master_seed)] + [
        zlib.crc32(t.encode("utf-8")) if isinstance(t, str) else int(t) for t in tags
    ]
    words = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(words[0]) | (int(words[1]) << 32)


@contextlib.contextmanager
def _warnings_as_errors():
    """A uint32 product of two numpy scalars warns on overflow; the hash's
    products must wrap silently."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


_ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(min_value=0, max_value=2**130))
_tags = st.lists(st.one_of(_ints, st.text(max_size=12)), max_size=10)
_rows = st.lists(st.lists(st.one_of(_ints, st.text(max_size=12)), max_size=6), max_size=20)


class TestDeriveSeed:
    @settings(max_examples=300, deadline=None)
    @given(master=_ints, tags=_tags)
    def test_equals_seed_sequence_over_the_int_list(self, master, tags):
        assert derive_seed(master, *tags) == _reference_seed(master, *tags)

    @pytest.mark.parametrize("value", EDGE_INTS)
    def test_word_boundaries(self, value):
        assert derive_seed(value) == _reference_seed(value)
        assert derive_seed(3, "eval", value, 1) == _reference_seed(3, "eval", value, 1)

    @pytest.mark.parametrize("length", range(1, 21))
    def test_entropy_of_every_length_up_to_20_words(self, length):
        # fewer words than SeedSequence's pool of 4, exactly 4, and more
        words = np.random.default_rng(length).integers(0, 2**32, size=length).tolist()
        words[0], words[-1] = 2**32 - 1, 0
        state = np.random.SeedSequence(words).generate_state(2, dtype=np.uint32)
        with _warnings_as_errors():
            seed = derive_seed(*words)
        assert seed == int(state[0]) | (int(state[1]) << 32)

    def test_pinned_values(self):
        # recorded before the entropy was handed to SeedSequence as one array
        assert derive_seed(0, "eval", 1, 2, 4) == 14975904145331676710
        assert derive_seed(7, "ga-init") == 12313023724766639543
        assert derive_seed(2**64 + 1, "local-update", 2**32 - 1, 2**32) == 14315807902000790301

    def test_is_a_64_bit_python_int(self):
        seed = derive_seed(5, "x", 2**40)
        assert type(seed) is int
        assert 0 <= seed < 2**64

    def test_numpy_ints_and_python_ints_agree(self):
        assert derive_seed(np.int64(9), np.uint32(3), "t") == derive_seed(9, 3, "t")

    def test_tags_are_ordered(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    @pytest.mark.parametrize("args", [(-1,), (0, -1), (2**40, "eval", 1, -3)])
    def test_negative_master_seed_or_tag_raises(self, args):
        with pytest.raises(ValueError):
            derive_seed(*args)

    def test_rng_is_seeded_with_the_derived_seed(self):
        a = derive_rng(4, "ga-evolve").random(3)
        b = np.random.default_rng(derive_seed(4, "ga-evolve")).random(3)
        assert a.tolist() == b.tolist()


class TestDeriveSeeds:
    @settings(max_examples=200, deadline=None)
    @given(master=_ints, tags=_tags, rows=_rows)
    def test_each_row_equals_derive_seed(self, master, tags, rows):
        # rows of different word counts in one batch
        with _warnings_as_errors():
            seeds = derive_seeds(master, tags, rows)
            assert seeds == [derive_seed(master, *tags, *r) for r in rows]

    def test_empty_batch(self):
        with _warnings_as_errors():
            assert derive_seeds(3, ("eval",), []) == []
