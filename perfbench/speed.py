"""The machine's speed, sampled between operations.

The benchmark runs on a few cores of a shared host, whose speed drifts by a
third over minutes.  Wall times taken at different moments are therefore not
comparable, however long each run.  A fixed reference task, timed between the
operations, samples that drift at the same moments as the operations
themselves, and dividing by it scales every time to one reference speed.

The reference task is a breadth-first search over a fixed random graph, in
pure Python like the program's own graph code.  It allocates nothing while it
runs, so the program's heap does not change its cost through the garbage
collector.  Its graph is small and searched once untimed before each burst
of timed searches, so the program's cache footprint does not change its cost
either.  Neither the graph nor the task depends on the workload seed or on
``l2limits``, so a change to the program cannot change the reference.
"""
from __future__ import annotations

import random
import statistics
import time

VERTICES = 1000
DEGREE = 3             # edges added per vertex, so the mean degree is 6
REF_UNIT_S = 0.00035   # one search at the reference speed: about its median
                       # on the 2-CPU machine of README.md
SHARE = 0.1            # probe time after an operation, as a share of its time
MIN_UNITS = 2          # searches after every operation, however short


def _graph():
    rng = random.Random(20181022)
    adj = [[] for _ in range(VERTICES)]
    for v in range(VERTICES):
        for _ in range(DEGREE):
            u = rng.randrange(VERTICES)
            adj[v].append(u)
            adj[u].append(v)
    return [tuple(a) for a in adj]


class Probe:
    """Times the reference search between operations.

    ``scale(seconds)`` searches for about ``SHARE`` of an operation's time
    right after it, and returns reference speed over the speed those searches
    measured: the number that scales the operation's wall time to the
    reference.  ``times`` keeps every timed search.
    """

    def __init__(self):
        self.adj = _graph()
        self.mark = [0] * VERTICES
        self.queue = [0] * VERTICES
        self.stamp = 0
        self.times = []

    def _search(self):
        adj, mark, queue = self.adj, self.mark, self.queue
        self.stamp += 1
        stamp = self.stamp
        mark[0] = stamp
        queue[0] = 0
        head, tail = 0, 1
        while head < tail:
            v = queue[head]
            head += 1
            for u in adj[v]:
                if mark[u] != stamp:
                    mark[u] = stamp
                    queue[tail] = u
                    tail += 1

    def scale(self, seconds):
        self._search()  # untimed: brings the graph back into cache
        burst = []
        while len(burst) < MIN_UNITS or sum(burst) < SHARE * seconds:
            start = time.perf_counter()
            self._search()
            burst.append(time.perf_counter() - start)
        self.times += burst
        return REF_UNIT_S / statistics.median(burst)
