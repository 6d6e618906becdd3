"""Performance layer: :class:`~repro.perf.cache.LRUCache`, a bounded LRU cache.

The pipeline constructs none; batched ranking lives with the models it
serves (DESIGN.md §12).
"""

from repro.perf.cache import LRUCache

__all__ = ["LRUCache"]
