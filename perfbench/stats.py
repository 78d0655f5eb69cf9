"""Percentiles and the provenance every result record carries."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import time
from pathlib import Path
from typing import Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile ``q`` (0-100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_q(n: int, want: float = 95.0) -> float:
    """The highest percentile up to ``want`` with ten samples beyond it."""
    if n <= 20:
        return 50.0
    return min(want, 100.0 * (1.0 - 10.0 / n))


def latency_summary(name: str, seconds: Sequence[float]) -> dict:
    """``<name>_p50_ms`` and ``<name>_p95_ms`` with their sample count.

    The tail is p95 when at least 200 samples leave ten beyond it, and
    otherwise the highest percentile that does; ``tail_q`` says which.
    """
    ms = [s * 1e3 for s in seconds]
    q = tail_q(len(ms))
    return {
        f"{name}_p50_ms": percentile(ms, 50.0),
        f"{name}_p95_ms": percentile(ms, q),
        f"{name}_n": len(ms),
        f"{name}_tail_q": round(q, 2),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """Resident set of this process now, in MB (its peak off Linux)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return peak_rss_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    """sha1 over the program's source files, for checkouts without git."""
    digest = hashlib.sha1()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path, seed: int, workload: str, params: dict) -> dict:
    """Where a result came from: code, interpreter, host and inputs."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.core.backend import resolve_backend, resolve_kernel

    return {
        "commit": _git_commit(root),
        "src_sha1": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "scan_kernel": resolve_kernel(None),
        "scan_backend": resolve_backend(None),
        "seed": seed,
        "workload": workload,
        "params": params,
    }


#: Median seconds of one warm reference sample on the host the benchmark
#: was defined on (2-vCPU Xeon VM, Python 3.11, numpy 2.4), where it
#: moved between about 0.7 and 0.9 ms with the host's load.
REFERENCE_SAMPLE_S = 800e-6

# the kernel's data, made at import so that it is not counted in the
# program's memory
_WORDS = [f"tok{i % 97}".encode() for i in range(400)]
_TABLE = {i: i * 7 for i in range(20_000)}
_KEYS = list(range(0, 20_000, 7))
_BLOB = bytes(range(256)) * 1024
try:
    import numpy

    _ARRAY = numpy.arange(65536, dtype=numpy.int64)
except ImportError:
    _ARRAY = None


def _kernel() -> int:
    """Interpreter work, a 20k-entry dict, a 256 KiB bytes scan and numpy
    over 512 KiB: none of it uses the program."""
    counts: dict = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    parts = b" ".join(_WORDS).split(b" ")
    total = len(set(parts)) + len(counts)
    for key in _KEYS:
        total += _TABLE[key]
    total += _BLOB.count(b"\x07\x08")
    if _ARRAY is not None:
        total += int(_ARRAY.cumsum()[-1] & 1)
    return total


class HostSpeed:
    """How slow this host runs a fixed reference kernel, right now.

    The shared hosts this benchmark runs on change speed from one second
    to the next with their neighbours' load, and that moves every time
    of a run together. Before each operation the workload calls
    :meth:`sample`, which runs the kernel three times and keeps the
    fastest: the first run pays for the caches the previous operation
    left cold, the fastest measures the host. The collector is off
    while the kernel runs, so the kernel never pays for collecting the
    program's garbage. ``factor`` is the median kept sample over
    ``REFERENCE_SAMPLE_S``; dividing host times by it gives host times
    on a host of the reference speed. A single sample's factor scales
    the operation that follows it. ``spent_s`` is the host time the
    samples took, which the workloads leave out of their wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self) -> float:
        """Take one sample; returns its factor."""
        clock = time.perf_counter
        start = clock()
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                t0 = clock()
                _kernel()
                best = min(best, clock() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(best)
        self.spent_s += clock() - start
        return best / REFERENCE_SAMPLE_S

    @property
    def factor(self) -> float:
        """Median sample over the reference; above 1 is a slow host."""
        if not self.samples:
            return 1.0
        return percentile(self.samples, 50.0) / REFERENCE_SAMPLE_S
