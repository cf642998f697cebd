"""Helpers shared by the test modules."""

import gc
import tracemalloc


def traced_peak(fn, *args, **kwargs) -> int:
    """The peak of Python and numpy allocations, in bytes, while
    ``fn(*args, **kwargs)`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
