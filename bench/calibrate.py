"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared host the same work runs up to 2.5 times slower for
stretches of a second to minutes, and the slowdown reaches every process
alike.  ``Sampler`` therefore runs one short round of this kernel every
``PERIOD_S`` of wall time, from a timer signal, while the runner runs
ops.  Rounds and ops are timed in process CPU time, which leaves out the
time the host takes the virtual CPU away (steal time).  The runner takes
the rounds' own time out of the ops' latencies and scales each latency
by ``REF_S`` over the mean round time measured while it ran: a latency
in reference seconds is one on a machine that runs a round in ``REF_S``.

The kernel does the kind of work ``bseq`` spends its time on: sparse
polynomials as dicts from exponent tuples to coefficients, multiplied
over Q (Fraction) and over F_32003 (int mod p), and sorting and counting
exponent tuples.  Op by op, the CPU time of every ``ladder`` op moved
with the round time as its power 0.88 to 1.08 (0.96 over all ops) while
the round time itself varied 2.5-fold.  The kernel uses only the
standard library and does not change from commit to commit, so a change
to ``bseq`` moves only the latencies.
"""

import random
import signal
import time
from fractions import Fraction

# CPU seconds a round takes on the reference machine, a 2-vCPU Xeon VM
# with Python 3.11, when its neighbours are idle
REF_S = 0.003
# wall time from the end of one round to the start of the next
PERIOD_S = 0.1

_P = 32003


def _polys(rng, coeff):
    return [{tuple(rng.randrange(4) for _ in range(4)): coeff(rng)
             for _ in range(12)} for _ in range(2)]


def _mul(a, b, reduce):
    prod = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = reduce(prod.get(e, 0) + ca * cb)
            if c:
                prod[e] = c
            else:
                prod.pop(e, None)
    return prod


def _round():
    rng = random.Random(20030723)
    for _ in range(2):
        _mul(*_polys(rng, lambda r: Fraction(r.randrange(-9, 10),
                                             r.randrange(1, 5))),
             lambda c: c)
    for _ in range(4):
        _mul(*_polys(rng, lambda r: r.randrange(_P)), lambda c: c % _P)
    keys = [tuple(rng.randrange(5) for _ in range(5)) for _ in range(400)]
    keys.sort()
    counts = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    return len(counts)


def seconds():
    """CPU time of one round."""
    start = time.process_time()
    _round()
    return time.process_time() - start


class Sampler:
    """Runs a round every ``PERIOD_S`` while started; keeps their times.

    A round runs in the SIGALRM handler, so between two bytecodes of
    whatever the main thread runs.  ``rounds`` holds, in order, each
    round's perf_counter start and its CPU time.  ``start`` and ``stop``
    each run a round as well, so a started sampler always has one.
    """

    def __init__(self):
        self.rounds = []

    def _round(self):
        start = time.perf_counter()
        self.rounds.append((start, seconds()))

    def _tick(self, signum, frame):
        self._round()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self):
        self._round()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._round()

    def between(self, start, end):
        """The CPU times of the rounds that began within [start, end]."""
        return [cpu for began, cpu in self.rounds if start <= began <= end]
