"""The lookup ``benchmarks/e2e/shims.py`` wraps as ``parallel.proxy_cache``.

Nothing caches gradient proxies: the selection model's weights change
every round, so no key would ever hit.  Nothing calls :meth:`ProxyCache.get`,
so ``parallel.proxy_cache_lookups`` reads 0.  ROADMAP 8(b) deletes the
harness patch, and then this module.
"""

__all__ = ["ProxyCache"]


class ProxyCache:
    """Holds nothing; the harness patches ``vars(ProxyCache)["get"]``."""

    def get(self, key):
        return None
