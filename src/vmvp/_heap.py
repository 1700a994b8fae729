"""The process-wide heap policy, set once when ``vmvp`` is imported.

glibc serves a block of at least its mmap threshold (128 KiB at start) with
a fresh ``mmap`` and returns the free top of its heap to the system once it
exceeds the trim threshold.  It raises both thresholds only after a large
mmapped block has been freed, so until then every multi-MB temporary of the
kernels (``evaluate_at``'s products, the fluid kernel's grids, the
auction's arrays) is mapped, zero-filled by the kernel page by page, and
unmapped again on every call.  Pinning both thresholds at the values the
dynamic rule reaches after one 32 MiB block is freed lets those temporaries
be reused from the heap.  Setting only one of them switches the dynamic rule
off and leaves the other at its start value, which faulted as much as the
defaults or more, so the trim threshold is set only after the mmap threshold
was.
"""

import ctypes
import sys

M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's <malloc.h>
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def pin_heap_thresholds() -> tuple[int, ...]:
    """Set the C library's mmap and trim thresholds where it has ``mallopt``.

    Returns mallopt's return codes in call order, 1 for success: ``(1, 1)``
    when both are set, ``(0,)`` when the mmap threshold was refused and
    nothing was set, ``()`` when there is no ``mallopt`` (not Linux, or a C
    library without it).
    """
    if not sys.platform.startswith("linux"):
        return ()
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return (0,)
    return (1, mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
