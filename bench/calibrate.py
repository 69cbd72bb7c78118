"""Machine-speed calibration for the benchmark's timed metrics.

On a shared box the same work can take anywhere from 1x to 2x as long from
one minute to the next, because other tenants contend for the cores; process
CPU time rises with wall time, so it is not time lost to descheduling but
slower execution. A fixed kernel that depends on nothing in the program is
timed between rounds, in the same process, and each round (and the median
setup probe) is expressed at the speed at which the kernel takes its
reference time:

    normalised = measured * reference_time / kernel_time

Contention slows interpreter-bound and memory-bound work by different
shares, so each workload names the kernel that resembles its hot path.

Both commits of a comparison run the same kernel, so a change to the program
still moves the normalised figure by the same share as the raw one, while a
slow spell on the box moves both the kernel and the round and cancels out.
"""

from __future__ import annotations

import hashlib
import random
import re
from time import perf_counter

import numpy as np

_VOCAB = (
    "internal memo quarterly review records bid correlation audit pricing "
    "coordination market harmony failure rate safety tolerance screening bias "
    "facilities bulletin elevator maintenance scheduled weekend orchid granite"
).split()
_rng = random.Random(20251017)
_TEXTS = tuple(" ".join(_rng.choice(_VOCAB) for _ in range(14)) + f" {i}" for i in range(10000))
_TOKEN = re.compile(r"[a-z0-9]+")
_VECTORS = np.random.default_rng(7).random((64, 512))


def _text() -> None:
    counts: dict[int, int] = {}
    for text in _TEXTS:
        for token in _TOKEN.findall(text.lower()):
            bucket = int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big") % 512
            counts[bucket] = counts.get(bucket, 0) + 1
    ranked = sorted(((-n, b) for b, n in counts.items()))
    for row in _VECTORS:
        float(np.dot(row, _VECTORS[ranked[0][1] % 64]))


class _Record:
    """Shaped like the program's execution records: seven attributes in an
    instance dict, so a scan touches as much memory per record."""

    def __init__(self, i: int) -> None:
        self.key = f"q{_rng.randrange(3000):05d}"
        self.pipeline = f"p{i % 48:03d}"
        self.flag = _rng.random() < 0.5
        self.certificate = None if i % 2 else (i, f"certs/p{i % 32:03d}.cert")
        self.outcome = ("established", "refuted", "inconclusive", None)[i % 4]
        self.evidence = "none"
        self.timestamp = f"2025-01-01T00:00:{i % 60:02d}"


_RECORDS = [_Record(i) for i in range(3000)]
_KEYS = [f"q{i:05d}" for i in range(0, 3000, 3)]


def _scan() -> None:
    for key in _KEYS:
        [r for r in _RECORDS if r.key == key and r.flag]


# Each kernel with its time on the box the baseline was recorded on, when
# that box was not contended, so normalised figures read close to raw ones.
KERNELS = {
    # tokenising, hashing, counting, sorting and small vector products: the
    # simlab rounds' mix
    "text": (_text, 0.2),
    # filtering a list of objects by attribute: the ledger and fold scans
    "scan": (_scan, 0.1),
}


def kernel_s(name: str) -> float:
    """Seconds for one run of the named kernel."""
    start = perf_counter()
    KERNELS[name][0]()
    return perf_counter() - start
