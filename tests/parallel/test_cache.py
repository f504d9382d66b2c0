"""Property tests for the proxy-reuse cache and its invalidation axes."""

import numpy as np
import pytest

from repro.parallel.cache import ProxyCache, model_weights_digest
from repro.selection.gradients import compute_gradient_proxies


def _first_param(model):
    for _, param in model.named_parameters():
        return param
    raise AssertionError("model has no parameters")


class TestModelWeightsDigest:
    def test_stable_for_unchanged_model(self, tiny_model):
        assert model_weights_digest(tiny_model) == model_weights_digest(tiny_model)

    def test_changes_when_any_weight_changes(self, tiny_model):
        before = model_weights_digest(tiny_model)
        param = _first_param(tiny_model)
        param.data.flat[0] += 1e-3
        assert model_weights_digest(tiny_model) != before

    def test_unwraps_quantized_replica(self, tiny_model):
        from repro.nn.quantize import QuantizedModel

        replica = QuantizedModel(tiny_model, bits=8)
        assert model_weights_digest(replica) == model_weights_digest(replica.model)

    def test_plain_callable_has_no_digest(self):
        assert model_weights_digest(lambda x: x) is None


class TestProxyCacheKey:
    def test_invalidates_on_weight_change(self, tiny_model):
        cache = ProxyCache()
        ids = np.arange(10)
        before = cache.key(tiny_model, ids)
        _first_param(tiny_model).data.flat[0] += 1e-3
        assert cache.key(tiny_model, ids) != before

    def test_invalidates_on_pool_mutation(self, tiny_model):
        cache = ProxyCache()
        base = cache.key(tiny_model, np.arange(10))
        # Any mutation of the candidate pool — grow, shrink, reorder,
        # substitute — must produce a fresh key.
        for mutated in (
            np.arange(11),
            np.arange(9),
            np.arange(10)[::-1].copy(),
            np.concatenate([np.arange(9), [99]]),
        ):
            assert cache.key(tiny_model, mutated) != base

    def test_undigestable_model_yields_no_key(self):
        assert ProxyCache().key(lambda x: x, np.arange(4)) is None


class TestProxyCacheStore:
    def test_hit_and_miss_counters(self):
        cache = ProxyCache()
        assert cache.get("k") is None
        cache.put("k", "proxy")
        assert cache.get("k") == "proxy"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_none_key_bypasses_silently(self):
        cache = ProxyCache()
        cache.put(None, "proxy")
        assert cache.get(None) is None
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_lru_eviction_order(self):
        cache = ProxyCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_clear_resets_everything(self):
        cache = ProxyCache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ProxyCache(max_entries=0)


def _cached_proxies(model, x, y, ids, cache):
    """Look the proxies up in ``cache`` and compute and store them on a miss."""
    key = cache.key(model, ids)
    proxy = cache.get(key)
    if proxy is None:
        proxy = compute_gradient_proxies(model, x, y, ids=ids)
        cache.put(key, proxy)
    return proxy


class TestComputeProxiesWithCache:
    def test_second_identical_round_is_served_from_cache(
        self, train_test_split, tiny_model
    ):
        train, _ = train_test_split
        cache = ProxyCache()
        x, y, ids = train.x[:32], train.y[:32], train.ids[:32]
        first = _cached_proxies(tiny_model, x, y, ids, cache)
        second = _cached_proxies(tiny_model, x, y, ids, cache)
        assert second is first  # the exact cached object, no recompute
        assert cache.hits == 1

    def test_weight_update_forces_recompute(self, train_test_split, tiny_model):
        train, _ = train_test_split
        cache = ProxyCache()
        x, y, ids = train.x[:32], train.y[:32], train.ids[:32]
        first = _cached_proxies(tiny_model, x, y, ids, cache)
        _first_param(tiny_model).data += 0.05
        second = _cached_proxies(tiny_model, x, y, ids, cache)
        assert second is not first
        assert not np.array_equal(second.vectors, first.vectors)
        assert cache.hits == 0

    def test_pool_change_forces_recompute(self, train_test_split, tiny_model):
        train, _ = train_test_split
        cache = ProxyCache()
        first = _cached_proxies(tiny_model, train.x[:32], train.y[:32], train.ids[:32], cache)
        second = _cached_proxies(tiny_model, train.x[1:33], train.y[1:33], train.ids[1:33], cache)
        assert second is not first
        assert cache.hits == 0

    def test_cached_result_equals_uncached(self, train_test_split, tiny_model):
        train, _ = train_test_split
        cache = ProxyCache()
        x, y, ids = train.x[:32], train.y[:32], train.ids[:32]
        _cached_proxies(tiny_model, x, y, ids, cache)
        cached = _cached_proxies(tiny_model, x, y, ids, cache)
        plain = compute_gradient_proxies(tiny_model, x, y, ids=ids)
        assert np.array_equal(cached.vectors, plain.vectors)
        assert np.array_equal(cached.losses, plain.losses)


class TestScoringKeySeparation:
    def test_replica_bit_width_is_part_of_the_key(self, tiny_model):
        from repro.nn.quantize import QuantizedModel

        cache = ProxyCache()
        ids = np.arange(10)
        # Same dequantized weights could coincide across bit widths; the
        # key must still differ because the proxy pass reads the bits.
        eight = QuantizedModel(tiny_model, bits=8)
        four = QuantizedModel(tiny_model, bits=4)
        assert cache.key(eight, ids) != cache.key(four, ids)
