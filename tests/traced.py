"""Peak memory of one call, as tracemalloc sees it, for tests that bound it."""

import tracemalloc


def peak_bytes(call) -> int:
    """The most bytes traced at once while ``call()`` runs, above what was
    allocated before it; what it returns is dropped only after the reading."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak
