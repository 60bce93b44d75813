"""A fixed reference workload that measures how fast the host runs right now.

The benchmark's host is shared: other machines' work on the same
processors slows Python code by up to 1.9x, in phases from under a
second to minutes long.  A phase that fills a window moves the median of
every timing together, so timings from different runs are not
comparable.

:class:`HostProbe` runs a fixed piece of Python between repetitions and
times it.  The piece is made to load the host the way the simulation
does: an object graph of a few tens of MB, string keys, dict lookups,
attribute access, float arithmetic, JSON and hashing.  It is part of the
benchmark, never of the program, so a change to the program leaves it
alone.  A repetition's timings are scaled by ``REFERENCE_S`` over the
probe's time around that repetition, which reports them at a fixed host
speed (see ``README.md``, "Host-speed scaling").
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time

#: The probe's pass time on a quiet host (2.1 GHz Xeon, Python 3.11):
#: the host speed every scaled timing is reported at.
REFERENCE_S = 0.125
#: Graph size and passes per sample.
OBJECTS = 150_000
STEPS = 30_000
PASSES = 4


class _Node:
    __slots__ = ("uid", "name", "tags", "score", "links")

    def __init__(self, uid: int, name: str, tags: tuple, score: float) -> None:
        self.uid = uid
        self.name = name
        self.tags = tags
        self.score = score
        self.links: list[_Node] = []


class HostProbe:
    """The reference workload; build once, then :meth:`sample` often."""

    def __init__(self) -> None:
        rng = random.Random(7)
        nodes = [_Node(uid, f"user-{uid:07d}",
                       (rng.choice("abcdef"), rng.random() < 0.3),
                       rng.random())
                 for uid in range(OBJECTS)]
        for node in nodes:
            node.links = [nodes[rng.randrange(OBJECTS)] for _ in range(4)]
        self._index = {node.name: node for node in nodes}
        self._digest: str | None = None

    def _pass(self, seed: int) -> str:
        rng = random.Random(seed)
        index = self._index
        total = 0.0
        rows = []
        for step in range(STEPS):
            node = index[f"user-{rng.randrange(OBJECTS):07d}"]
            for link in node.links:
                total += link.score * (2.0 if link.tags[1] else 1.0)
            if step % 50 == 0:
                rows.append({"uid": node.uid, "tag": node.tags[0],
                             "total": round(total, 3)})
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    def sample(self) -> float:
        """Mean time of :data:`PASSES` passes, in seconds.

        The host's speed also flips within a second; the mean follows the
        share of time it spends in each state, as a repetition's time does.

        Raises ``RuntimeError`` if a pass computes a different result
        than before: the probe must do the same work every time.
        """
        times = []
        for seed in range(PASSES):
            started = time.perf_counter()
            digest = self._pass(seed)
            times.append(time.perf_counter() - started)
            if seed == 0:
                if self._digest is None:
                    self._digest = digest
                elif digest != self._digest:
                    raise RuntimeError(
                        "host probe computed a different result")
        return statistics.mean(times)
