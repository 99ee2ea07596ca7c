"""Deterministic instance generation built on a splitmix64 stream.

The generator is pinned here (rather than relying on a library RNG) so that
the same seed produces byte-identical instance files on every platform.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .core import MAX_PAIRS, Instance

_MASK = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """Yield the splitmix64 stream of 64-bit values for a 64-bit seed."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def random_big_sets(
    n: int, m: int, big_prob: Fraction, seed: int
) -> tuple[frozenset[int], ...]:
    """Make each (agent, good) pair big independently with probability big_prob.

    Consumes exactly one stream value per pair, agents outermost (row-major),
    so the draw for a pair never shifts when other parameters stay fixed.
    More than core.MAX_PAIRS pairs are refused before any draw.
    """
    big_prob = Fraction(big_prob)
    if not 0 <= big_prob <= 1:
        raise ValueError(f"big_prob must lie in [0, 1], got {big_prob}")
    if n * m > MAX_PAIRS:
        raise ValueError(f"pair count n*m = {n * m} exceeds the limit of {MAX_PAIRS}")
    threshold = (big_prob.numerator << 64) // big_prob.denominator
    stream = splitmix64(seed)
    # the generator must be drained good by good even when filtering
    return tuple(frozenset(g for g in range(m) if next(stream) < threshold) for _ in range(n))


def random_instance(
    n: int, m: int, p: int, q: int, big_prob: Fraction, seed: int
) -> Instance:
    return Instance(n, m, p, q, random_big_sets(n, m, big_prob, seed))
