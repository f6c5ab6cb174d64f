"""One BLAS thread for the package's own linear algebra.

Every matrix the package factors or multiplies is small (Nystrom operators
of order 48-1152, finite-N windows of a few hundred sites).  There a second
OpenBLAS thread mostly adds synchronisation, and LUs above order 96 and
larger products change in their last bits with the thread count.
``one_blas_thread`` runs its body at one thread of the OpenBLAS that numpy
loaded and gives the caller's count back on exit; only the outermost of
nested entries sets and restores it.  The count is process-wide, so other
threads' BLAS calls also run at one thread while any thread is inside.

The library is looked up once, at the first entry: among the files mapped
into the process (``/proc/self/maps``) whose name contains ``openblas``,
the first get/set-num-threads pair of ``_NAMES``.  Names are tried before
files, so numpy's ILP64 ``scipy_openblas`` build is bound even where
SciPy's 32-bit one is mapped beside it.  Where no pair is found (MKL,
Accelerate, no ``/proc``) the scope does nothing.
"""

from __future__ import annotations

import ctypes
import threading

_NAMES = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
          "openblas_{}_num_threads")


def _bind():
    """(get, set) of the first pair of ``_NAMES`` that a mapped OpenBLAS
    exports, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = dict.fromkeys(f[5].strip() for f in fields if len(f) == 6
                          and "openblas" in f[5].rsplit("/", 1)[-1])
    for name in _NAMES:
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
                get, put = (getattr(lib, name.format(verb))
                            for verb in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


class _OneThread:
    """The reentrant scope; ``controls`` is the bound (get, set) pair, or
    None where the lookup found none, from the first entry on."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None
        self._bound = False
        self.controls = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                if not self._bound:
                    self.controls, self._bound = _bind(), True
                if self.controls is not None:
                    get, put = self.controls
                    self._saved = get()
                    if self._saved != 1:
                        put(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                if self._saved not in (None, 1):
                    self.controls[1](self._saved)
                self._saved = None
        return False


one_blas_thread = _OneThread()
