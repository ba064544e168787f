"""A fixed reference computation that measures how fast the host runs
right now.

The benchmark is written for small shared hosts, where other tenants slow
a whole process by up to a factor of two for stretches of seconds to
minutes, and where the slowdown is lost CPU speed, not lost CPU time (the
process's CPU time grows with its wall time).  No statistic taken over the
program's own timings removes a slowdown that covers a whole run.  So the
benchmark times this computation between requests and reports the
program's timings scaled to a nominal host speed::

    scaled time = measured time * speed(reference chunks timed nearby)

The computation is the benchmark's own and never changes.  It has one part
for each kind of work the package's requests do: NumPy scalar indexing and
row updates on a small complex matrix, plain interpreter loops, products of
medium complex matrices, and JSON encoding and decoding.  Other tenants
slow these kinds by different amounts, so the speed is taken over all of
them with equal weight.  Over stretches of ten requests, the log of the
largest requests' latency followed the log of this speed with a slope of
0.8 to 1.08, depending on the hour, on the 2-vCPU host below, where the
latency alone varied by a factor of two; a part that copied a buffer larger than the caches slowed
half as much as the requests did and was left out.  A change to the
package moves the scaled times exactly as it moves the measured ones; only
the host's speed is divided out.
"""

import json
import time

import numpy as np

_N = 6
_BASE = (np.arange(_N * _N).reshape(_N, _N) % 7 - 3.0) * (0.25 + 0.5j) / _N
_BASE = _BASE + _BASE.conj().T + np.eye(_N)
_MEDIUM = np.cos(np.arange(32 * 32).reshape(32, 32)) * (1.0 + 1.0j)
_DOC = {f"term{i}": {"c": [[i * 0.1, j * 0.3] for j in range(16)], "n": i} for i in range(20)}


def _rotations() -> None:
    for _ in range(2):
        h = _BASE.copy()
        v = np.eye(_N, dtype=np.complex128)
        for p in range(_N - 1):
            for q in range(p + 1, _N):
                r = abs(h[p, q])
                g = h[p, q] / r
                zeta = (h[q, q].real - h[p, p].real) / (2.0 * r)
                t = 1.0 / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = h[p, :].copy()
                rq = h[q, :].copy()
                h[p, :] = c * rp - s * g * rq
                h[q, :] = s * np.conj(g) * rp + c * rq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * np.conj(g) * vq
                v[:, q] = s * g * vp + c * vq


def _interpreter() -> None:
    acc = 0
    for i in range(6000):
        acc += (i * 7) % 13
    table = {}
    for i in range(600):
        table[str(i)] = acc + i


def _products() -> None:
    x = _MEDIUM
    for _ in range(20):
        x = (x @ _MEDIUM) / np.linalg.norm(x)
        x = x - 0.5 * x.conj().T


def _json() -> None:
    json.loads(json.dumps(_DOC, sort_keys=True))


# Each part with the seconds it takes at nominal speed: about its fastest
# time on an otherwise idle 2-vCPU x86-64 host (Python 3.11, NumPy 2.4,
# OpenBLAS capped at one thread).  Fixed constants, so scaled times stay comparable
# across runs and commits.
PARTS = (
    (_rotations, 0.00045),
    (_interpreter, 0.00045),
    (_products, 0.00042),
    (_json, 0.00040),
)


def chunk() -> tuple:
    """Seconds each part of the reference computation took, once."""
    times = []
    for part, _ in PARTS:
        start = time.perf_counter()
        part()
        times.append(time.perf_counter() - start)
    return tuple(times)


def speed(samples: list) -> float:
    """Host speed relative to nominal, from chunks timed nearby: the factor
    that turns measured seconds into nominal seconds.  Each part's median
    time over the samples is compared with its nominal time, and the
    slowdowns of the parts are averaged."""
    slowdown = 0.0
    for i, (_, nominal) in enumerate(PARTS):
        ordered = sorted(sample[i] for sample in samples)
        slowdown += ordered[len(ordered) // 2] / nominal
    return len(PARTS) / slowdown
