"""Deterministic random streams.

Every stochastic element of the simulation (arrival processes, address
distributions, injector choices) draws from a named child of one root
seed, so experiments are reproducible and two components never perturb
each other's streams.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable


class DeterministicRng:
    """A reproducible random stream with common distributions.

    Child streams derived by name are stable across runs:

    >>> root = DeterministicRng(7)
    >>> a1 = root.child("arrivals").random()
    >>> a2 = DeterministicRng(7).child("arrivals").random()
    >>> a1 == a2
    True
    """

    def __init__(self, seed: int = 42, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self.seed)
        # Uniform float in [0, 1) and k random bits, one frame each.
        self.random = self._random.random
        self.getrandbits = self._random.getrandbits

    def child(self, name: str) -> "DeterministicRng":
        """A new independent stream keyed by this stream's seed and ``name``."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        child_seed = int.from_bytes(digest[:8], "big")
        return DeterministicRng(child_seed, name=f"{self.name}/{name}")

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive.

        Draws exactly what ``random.Random.randint`` draws (its
        ``_randbelow`` rejection loop on ``getrandbits``), without the
        three stdlib frames in between; ``tests/test_sim_rng_trace.py``
        pins the two streams together.
        """
        n = high - low + 1
        if n <= 0:
            return self._random.randint(low, high)  # raises ValueError
        getrandbits = self.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return low + r

    def exponential(self, mean: float) -> float:
        """Exponential variate; used for Poisson inter-arrival times."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        # random.Random.expovariate(1.0 / mean), inlined: the same draw
        # and the same float operations, so the same value.
        return -math.log(1.0 - self.random()) / (1.0 / mean)

    def zipf_sampler(self, n: int, alpha: float = 0.99) -> Callable[[], int]:
        """A draw function for Zipf-distributed indices in [0, n), via
        inverse-CDF on the continuous approximation. Memcached key
        popularity is Zipfian.

        The constants are computed once here; a draw is one ``random()``
        (none when ``n == 1``) through the same float operations as the
        unhoisted closed form, so the value is bit-identical to it.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return lambda: 0
        next_u = self.random
        last = n - 1
        # Harmonic normalization ~ ln(n) at alpha == 1.
        harmonic = abs(alpha - 1.0) < 1e-9
        log_n = math.log(n)
        one_minus = 1.0 - alpha
        scale = 0.0 if harmonic else n**one_minus - 1.0
        exponent = 0.0 if harmonic else 1.0 / one_minus

        def draw() -> int:
            if harmonic:
                index = int(math.exp(next_u() * log_n)) - 1
            else:
                index = int((next_u() * scale + 1.0) ** exponent) - 1
            if index < 0:
                return 0
            return last if index > last else index

        return draw
