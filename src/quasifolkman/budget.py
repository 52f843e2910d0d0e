"""The one memory budget of the blocked stages: each runs over its rows a
block at a time, sized by the bytes one row touches (its gathers, intp
index temporaries and output).  No output depends on the block size."""

#: bytes that one block of a blocked stage touches
BLOCK_BYTES = 1 << 21


def slices(count: int, row_bytes: int):
    """Consecutive slices of range(count), each as many rows as fit in
    BLOCK_BYTES at row_bytes a row, and at least one."""
    step = max(1, BLOCK_BYTES // row_bytes)
    for s in range(0, count, step):
        yield slice(s, min(s + step, count))
