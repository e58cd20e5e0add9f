"""Unit tests for the host-CPU cache model."""

import pytest

from repro.mem.cache import Cache, CacheConfig


def make_cache(**overrides):
    defaults = dict(size_bytes=1024, line_bytes=64, associativity=2,
                    hit_latency=1, miss_penalty=50)
    defaults.update(overrides)
    return Cache(CacheConfig(**defaults))


def test_first_access_misses_second_hits():
    cache = make_cache()
    miss = cache.lookup(0x100)
    hit = cache.lookup(0x100)
    assert miss > hit
    assert hit == cache.config.hit_latency
    assert cache.misses == 1
    assert cache.hits == 1


def test_same_line_different_offsets_hit():
    cache = make_cache()
    cache.lookup(0x100)
    assert cache.lookup(0x104) == cache.config.hit_latency
    assert cache.lookup(0x13C) == cache.config.hit_latency


def test_lru_eviction_within_set():
    cache = make_cache()
    num_sets = cache.config.num_sets
    line = cache.config.line_bytes
    stride = num_sets * line          # same set, different tags
    cache.lookup(0 * stride)
    cache.lookup(1 * stride)
    cache.lookup(0 * stride)          # refresh line 0
    cache.lookup(2 * stride)          # evicts line 1 (LRU)
    assert cache.lookup(0 * stride) == cache.config.hit_latency
    assert cache.lookup(1 * stride) > cache.config.hit_latency


def test_dirty_eviction_costs_writeback():
    cache = make_cache()
    num_sets = cache.config.num_sets
    stride = num_sets * cache.config.line_bytes
    cache.lookup(0 * stride, is_write=True)
    cache.lookup(1 * stride)
    cache.lookup(2 * stride)            # evicts dirty line 0
    cache.lookup(3 * stride)
    assert cache.writebacks >= 1


def test_hit_rate_property():
    cache = make_cache()
    assert cache.hit_rate == 0.0
    cache.lookup(0)
    cache.lookup(0)
    cache.lookup(0)
    assert cache.hit_rate == pytest.approx(2 / 3)


def test_streaming_larger_than_cache_has_low_hit_rate():
    cache = make_cache()
    for addr in range(0, 64 * 1024, 4):
        cache.lookup(addr)
    # 64-byte lines with 4-byte strides: 15/16 of accesses hit in the line.
    assert 0.9 < cache.hit_rate < 0.95


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=0)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, line_bytes=64, associativity=3)
