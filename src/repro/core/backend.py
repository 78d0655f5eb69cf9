"""Scan-path backend and kernel selection.

The vectorized scan path (``repro.core.vectokenizer`` + the
fact-matrix verdict kernel in ``repro.core.softmatch``) has two
interchangeable array backends:

- ``numpy`` — boolean-mask tokenization and signature pre-filtering over
  ``np.frombuffer`` views of the decompressed arena (zero copies until a
  line is actually kept),
- ``fallback`` — pure-Python/memoryview offset bookkeeping with the
  exact same outputs, for hosts without numpy.

Selection is explicit and testable: :func:`resolve_backend` honours the
``REPRO_SCAN_BACKEND`` environment variable (``auto`` | ``numpy`` |
``fallback``), and the differential suite force-selects each backend to
prove they are byte-for-byte equivalent. The same pattern applies one
level up: :func:`resolve_kernel` picks between the ``vectorized`` scan
kernel and the retained ``reference`` kernel (PR 3's per-line path, kept
as the oracle) via ``REPRO_SCAN_KERNEL``.

Nothing here imports numpy at module load; the probe is lazy and cached
so a missing numpy costs one failed import per process, ever.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "BACKEND_ENV",
    "KERNEL_ENV",
    "BackendUnavailableError",
    "available_backends",
    "numpy_or_none",
    "resolve_backend",
    "resolve_kernel",
]

#: Environment variable forcing an array backend (auto/numpy/fallback).
BACKEND_ENV = "REPRO_SCAN_BACKEND"

#: Environment variable forcing a scan kernel (auto/vectorized/reference).
KERNEL_ENV = "REPRO_SCAN_KERNEL"

#: Array backends, in auto-selection preference order.
BACKENDS = ("numpy", "fallback")

#: Scan kernels; ``auto`` resolves to ``vectorized``.
KERNELS = ("vectorized", "reference")

#: Lazy numpy probe result; ``False`` means "probed, absent".
_NUMPY: object = None


class BackendUnavailableError(RuntimeError):
    """A backend was requested explicitly but cannot be imported."""


def numpy_or_none():
    """The numpy module, or ``None`` when it is not installed (cached)."""
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy
        except ImportError:
            _NUMPY = False
        else:
            _NUMPY = numpy
    return _NUMPY or None


def available_backends() -> tuple[str, ...]:
    """Backends importable in this process, preference order."""
    return tuple(
        b for b in BACKENDS if b != "numpy" or numpy_or_none() is not None
    )


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend name (or the environment) to a usable backend.

    ``None``/``"auto"`` prefers numpy and silently falls back;
    an explicit ``"numpy"`` raises :class:`BackendUnavailableError` when
    numpy is missing — tests use that to prove the fallback leg really
    ran without it.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV, "auto")
    name = name.strip().lower() or "auto"
    if name == "auto":
        return "numpy" if numpy_or_none() is not None else "fallback"
    if name == "numpy":
        if numpy_or_none() is None:
            raise BackendUnavailableError(
                "REPRO_SCAN_BACKEND=numpy but numpy is not importable"
            )
        return "numpy"
    if name == "fallback":
        return "fallback"
    raise ValueError(
        f"unknown scan backend {name!r}; expected auto, numpy or fallback"
    )


def resolve_kernel(name: Optional[str] = None) -> str:
    """Resolve a scan-kernel name (or the environment) to a kernel.

    ``None``/``"auto"`` means the vectorized path; ``"reference"`` pins
    the retained PR 3 kernel — the oracle the differential suite and the
    hot-path benchmark compare against.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV, "auto")
    name = name.strip().lower() or "auto"
    if name == "auto":
        return "vectorized"
    if name in KERNELS:
        return name
    raise ValueError(
        f"unknown scan kernel {name!r}; expected auto, vectorized or reference"
    )
