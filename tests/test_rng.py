"""Deterministic RNG substreams."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.rng import (
    DEFAULT_SEED,
    RngFactory,
    batch_seed_states,
    make_rng,
    substream_rngs_batch,
    substream_seed,
)


class TestSubstreamSeed:
    def test_deterministic(self):
        assert substream_seed(42, "solar") == substream_seed(42, "solar")

    def test_name_sensitivity(self):
        assert substream_seed(42, "solar") != substream_seed(42, "prices")

    def test_seed_sensitivity(self):
        assert substream_seed(42, "solar") != substream_seed(43, "solar")

    def test_fits_in_63_bits(self):
        for name in ("a", "solar", "prices", "x" * 100):
            assert 0 <= substream_seed(DEFAULT_SEED, name) < 2 ** 63


class TestMakeRng:
    def test_identical_streams(self):
        a = make_rng(7, "demand").random(16)
        b = make_rng(7, "demand").random(16)
        assert np.array_equal(a, b)

    def test_independent_streams(self):
        a = make_rng(7, "demand").random(16)
        b = make_rng(7, "solar").random(16)
        assert not np.array_equal(a, b)


class TestRngFactory:
    def test_stream_reproducible_across_calls(self):
        factory = RngFactory(9)
        first = factory.stream("prices").random(8)
        second = factory.stream("prices").random(8)
        assert np.array_equal(first, second)

    def test_child_differs_from_parent(self):
        factory = RngFactory(9)
        child = factory.child("replica-1")
        assert child.seed != factory.seed

    def test_children_differ(self):
        factory = RngFactory(9)
        assert factory.child("a").seed != factory.child("b").seed

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngFactory("not-a-seed")

    def test_repr_mentions_seed(self):
        assert "9" in repr(RngFactory(9))


def test_batch_seed_states_matches_numpy_seedsequence():
    rng = np.random.default_rng(11)
    seeds = [0, 1, 2, 0xffffffff, 0x100000000, 2**63 - 1, 2**64 - 1]
    seeds += [int(s) for s in rng.integers(0, 2**63, 64,
                                           dtype=np.uint64)]
    states = batch_seed_states(np.array(seeds, dtype=np.uint64))
    for row, seed in zip(states, seeds):
        reference = np.random.SeedSequence(seed).generate_state(
            4, np.uint64)
        assert np.array_equal(row, reference), seed


def test_substream_rngs_batch_streams_identical_to_make_rng():
    roots = [0, 3, 20130708, 2**62 + 17]
    names = ["stream:demand_ds", "stream:price_rt:spikes"]
    batched = substream_rngs_batch(roots, names)
    for index, root in enumerate(roots):
        for name in names:
            reference = make_rng(root, name)
            candidate = batched[name][index]
            assert np.array_equal(reference.standard_normal(32),
                                  candidate.standard_normal(32))
            assert np.array_equal(reference.poisson(2.5, 8),
                                  candidate.poisson(2.5, 8))


def test_substream_rngs_batch_empty():
    assert substream_rngs_batch([], ["a"]) == {"a": []}


def test_batch_seed_states_validates_shape():
    with pytest.raises(ConfigurationError, match="1-D"):
        batch_seed_states(np.zeros((2, 2), dtype=np.uint64))
