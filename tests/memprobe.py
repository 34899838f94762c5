"""Test-only probe of the memory a call holds at its peak."""

import tracemalloc


def traced_peak(call, warm=False):
    """The largest traced (tracemalloc) allocation total while call() runs, in bytes; warm=True measures a second call."""
    if warm:
        call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
