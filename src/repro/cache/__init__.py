"""Cache substrate: blocks, set-associative arrays, hierarchy, write buffer."""

from repro.cache.block import CacheBlock
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.set_assoc import CacheGeometry, Eviction, SetAssociativeCache
from repro.cache.stats import CacheStats, HierarchyStats
from repro.cache.write_buffer import CoalescingWriteBuffer, WriteBufferStats
from repro.core.protocol import DL1Outcome

__all__ = [
    "CacheBlock",
    "DL1Outcome",
    "HierarchyConfig",
    "MemoryHierarchy",
    "CacheGeometry",
    "Eviction",
    "SetAssociativeCache",
    "CacheStats",
    "HierarchyStats",
    "CoalescingWriteBuffer",
    "WriteBufferStats",
]
