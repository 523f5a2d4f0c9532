"""Givargis, Givargis-XOR and Patel trainer tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.address import PAPER_L1_GEOMETRY, CacheGeometry
from repro.core.fastsim import direct_mapped_miss_count
from repro.core.indexing import (
    GivargisIndexing,
    GivargisXorIndexing,
    PatelIndexing,
)
from repro.core.indexing.bit_select import bit_matrix, candidate_bit_positions
from repro.core.indexing.givargis import (
    bit_correlation_matrix,
    bit_quality,
    select_bits_greedy,
)
from repro.core.indexing.patel import exhaustive_best_positions
from repro.trace import hot_set_trace, uniform_trace

G = PAPER_L1_GEOMETRY


class TestQualityMetric:
    def test_balanced_bit_has_quality_one(self):
        bits = np.array([[0], [1], [0], [1]], dtype=np.uint8)
        assert bit_quality(bits)[0] == 1.0

    def test_constant_bit_has_quality_zero(self):
        bits = np.zeros((10, 1), dtype=np.uint8)
        assert bit_quality(bits)[0] == 0.0

    def test_skewed_bit(self):
        # 3 ones, 1 zero -> Q = 1/3 (Eq. 1).
        bits = np.array([[1], [1], [1], [0]], dtype=np.uint8)
        assert bit_quality(bits)[0] == pytest.approx(1 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bit_quality(np.zeros((0, 3), dtype=np.uint8))


class TestCorrelationMetric:
    def test_identical_bits_fully_correlated(self):
        col = np.array([0, 1, 1, 0], dtype=np.uint8)
        bits = np.stack([col, col], axis=1)
        corr = bit_correlation_matrix(bits)
        assert corr[0, 1] == 0.0  # Eq. 2: identical => min(E,D)/max = 0/4

    def test_complementary_bits_fully_correlated(self):
        col = np.array([0, 1, 1, 0], dtype=np.uint8)
        bits = np.stack([col, 1 - col], axis=1)
        assert bit_correlation_matrix(bits)[0, 1] == 0.0

    def test_independent_bits(self):
        # All four combinations equally: E == D == 2 => C = 1.
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        assert bit_correlation_matrix(bits)[0, 1] == 1.0

    def test_symmetric(self, rng):
        bits = rng.integers(0, 2, size=(200, 6)).astype(np.uint8)
        corr = bit_correlation_matrix(bits)
        np.testing.assert_allclose(corr, corr.T)

    def test_matches_naive_counting(self, rng):
        bits = rng.integers(0, 2, size=(100, 4)).astype(np.uint8)
        corr = bit_correlation_matrix(bits)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                equal = int((bits[:, i] == bits[:, j]).sum())
                diff = 100 - equal
                expected = min(equal, diff) / max(equal, diff)
                assert corr[i, j] == pytest.approx(expected)


class TestGreedySelection:
    def test_picks_highest_quality_first(self):
        quality = np.array([0.2, 0.9, 0.5])
        corr = np.ones((3, 3)) - np.eye(3)
        # corr has zero diagonal (self-correlated) per bit_correlation_matrix.
        np.fill_diagonal(corr, 0.0)
        chosen = select_bits_greedy(quality, corr, 2)
        assert chosen[0] == 1

    def test_damps_correlated_bits(self):
        # Bit 1 best; bit 2 nearly as good but duplicates bit 1; bit 0 poor
        # but independent -> selection should be [1, 0].
        quality = np.array([0.5, 1.0, 0.99])
        corr = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert select_bits_greedy(quality, corr, 2) == [1, 0]

    def test_requesting_too_many_raises(self):
        with pytest.raises(ValueError):
            select_bits_greedy(np.ones(3), np.ones((3, 3)), 4)


class TestGivargisScheme:
    def test_requires_fit(self):
        s = GivargisIndexing(G)
        with pytest.raises(RuntimeError):
            s.index_of(0x1000)

    def test_fit_selects_index_bit_count(self, hot):
        s = GivargisIndexing(G).fit(hot.addresses)
        assert len(s.positions) == G.index_bits
        assert len(set(s.positions)) == G.index_bits

    def test_excludes_offset_bits_by_default(self, hot):
        s = GivargisIndexing(G).fit(hot.addresses)
        assert all(p >= G.offset_bits for p in s.positions)

    def test_offset_bits_admissible_when_enabled(self):
        # Unique addresses whose *only* varying bits are in the offset.
        addrs = np.arange(32, dtype=np.uint64) + np.uint64(0x1000)
        s = GivargisIndexing(G, include_offset_bits=True).fit(addrs)
        assert any(p < G.offset_bits for p in s.positions)

    def test_vectorised_matches_scalar(self, hot):
        s = GivargisIndexing(G).fit(hot.addresses)
        sample = hot.addresses[:200]
        np.testing.assert_array_equal(
            s.indices_of(sample), [s.index_of(int(a)) for a in sample]
        )

    def test_contiguous_footprint_recovers_conventional_bits(self):
        """Over a contiguous unique range, the balanced bits are exactly the
        conventional index bits, so Givargis reproduces modulo's partition."""
        addrs = (np.arange(32 * 1024, dtype=np.uint64) + np.uint64(0x40000))
        s = GivargisIndexing(G).fit(addrs)
        assert set(s.positions) == set(range(5, 15))

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            GivargisIndexing(G).fit(np.array([], dtype=np.uint64))


class TestGivargisXor:
    def test_positions_are_tag_bits(self, hot):
        s = GivargisXorIndexing(G).fit(hot.addresses)
        assert all(p >= G.offset_bits + G.index_bits for p in s.positions)

    def test_zero_selected_bits_reduces_to_modulo(self, hot):
        s = GivargisXorIndexing(G).fit(hot.addresses)
        # An address whose tag is all-zero XORs nothing in.
        addr = 0x7FFF
        assert s.index_of(addr) == G.index_of(addr)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            GivargisXorIndexing(G).index_of(0)

    def test_narrow_geometry_rejected(self):
        # index 10 bits but only 1 tag bit available.
        g = CacheGeometry(32 * 1024, 32, 1, address_bits=16)
        with pytest.raises(ValueError):
            GivargisXorIndexing(g)


class TestPatel:
    def test_greedy_matches_exhaustive_on_tiny_pool(self):
        g = CacheGeometry(64, 16, 1, address_bits=12)  # 4 sets, 2 index bits
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 1 << 12, size=400, dtype=np.uint64)
        s = PatelIndexing(g, max_swap_moves=500).fit(addrs)
        blocks = addrs >> np.uint64(g.offset_bits)
        block_candidates = tuple(
            p - g.offset_bits for p in candidate_bit_positions(g) if p >= g.offset_bits
        )
        _, best_cost = exhaustive_best_positions(blocks, block_candidates, g.index_bits)
        assert s.cost_ == best_cost

    def test_beats_or_ties_modulo(self):
        """The search starts from scratch but cannot end worse than the cost
        of the best greedy choice; verify it beats modulo on an adversarial
        power-of-two-strided trace."""
        g = CacheGeometry(1024, 32, 1, address_bits=20)
        stride = 1024  # capacity-aliasing stride under modulo
        addrs = (np.arange(2000, dtype=np.uint64) % np.uint64(8)) * np.uint64(stride)
        s = PatelIndexing(g).fit(addrs)
        blocks = (addrs >> np.uint64(g.offset_bits)).astype(np.int64)
        modulo_cost = direct_mapped_miss_count(blocks, blocks & (g.num_sets - 1))
        assert s.cost_ is not None and s.cost_ <= modulo_cost

    def test_offset_bits_never_selected(self):
        """The fit works on block addresses, so ``include_offset_bits`` does
        not change the selection even where an offset bit would spread the
        trace: word-strided addresses vary in the offset bits, and Givargis
        with the option does pick them."""
        g = CacheGeometry(1024, 16, 1, address_bits=16)
        addrs = np.arange(4096, dtype=np.uint64) * np.uint64(4)
        plain = PatelIndexing(g).fit(addrs)
        with_offset = PatelIndexing(g, include_offset_bits=True).fit(addrs)
        assert with_offset.positions == plain.positions
        assert min(plain.positions) >= g.offset_bits
        givargis = GivargisIndexing(g, include_offset_bits=True).fit(addrs)
        assert min(givargis.positions) < g.offset_bits

    def test_positions_valid(self, hot):
        g = CacheGeometry(1024, 32, 1, address_bits=24)
        addrs = hot.addresses & np.uint64((1 << 24) - 1)
        s = PatelIndexing(g, max_swap_moves=4).fit(addrs)
        assert len(set(s.positions)) == g.index_bits
        idx = s.indices_of(addrs[:100])
        assert idx.min() >= 0 and idx.max() < g.num_sets
