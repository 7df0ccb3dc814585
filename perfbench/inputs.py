"""Seeded, width-controlled workload inputs.

Every value the benchmark sends is made here from the run's seed, so
the same seed gives the same inputs and nothing in the program under
test decides what is measured.

A *width-W double* is a value whose shortest round-trip text is exactly
W characters, ``d.ddd…d`` with W-2 decimals and a non-zero last digit.
Two pools of equal-width values let a stream flip values back and forth
without ever changing a field's width, so every resend after the first
is a perfect-structural match.
"""

from __future__ import annotations

import numpy as np

#: Characters per serialized value (1 integer digit, '.', 12 decimals).
WIDTH = 14
_SCALE = 10 ** (WIDTH - 2)


def _mantissas(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.integers(_SCALE, 10 * _SCALE, size=n, dtype=np.int64)
    m += m % 10 == 0  # last digit 0 → 1: keeps every value full width
    return m


def width_doubles(rng: np.random.Generator, n: int) -> np.ndarray:
    """*n* doubles whose shortest text form is exactly :data:`WIDTH` chars.

    ``m / 10**d`` with ``10**d <= m < 10**(d+1)`` and ``m % 10 != 0``
    is the correctly rounded double of a (d+1)-digit decimal; fewer than
    16 significant digits round-trip, and the non-zero last digit means
    no shorter decimal names the same value.
    """
    return _mantissas(rng, n) / float(_SCALE)


def check_width(values: np.ndarray) -> None:
    """Raise ``ValueError`` unless every value prints :data:`WIDTH` chars."""
    bad = [v for v in values.tolist() if len(repr(v)) != WIDTH]
    if bad:
        raise ValueError(f"{len(bad)} values are not {WIDTH} chars wide, e.g. {bad[0]!r}")


class FlipStream:
    """An array that flips a fixed number of values per step.

    Each value lives in one of two equal-width pools.  A step moves
    *flips* distinct positions to their other pool: the indices are an
    arithmetic progression with a random start and a random odd stride,
    distinct when the array length is a power of two (or *flips* is 1).
    """

    def __init__(self, rng: np.random.Generator, n: int, flips: int) -> None:
        if not 0 < flips <= n or (flips > 1 and n & (n - 1)):
            raise ValueError("need 0 < flips <= n, and n a power of two if flips > 1")
        self._rng = rng
        self._n = n
        self._steps = np.arange(flips, dtype=np.int64)
        m_a = _mantissas(rng, n)
        m_b = _mantissas(rng, n)
        # A flip must change the value, or the send would not be dirty:
        # where the pools collide, move b's last digit (1..9 → 2..9, 1).
        same = m_a == m_b
        last = m_a[same] % 10
        m_b[same] = m_a[same] - last + last % 9 + 1
        self._pool_a = m_a / float(_SCALE)
        self._pool_b = m_b / float(_SCALE)
        check_width(self._pool_a)
        check_width(self._pool_b)
        self._in_b = np.zeros(n, dtype=bool)
        self.values = self._pool_a.copy()

    def step(self) -> np.ndarray:
        """Flip the next set of positions; return the (mutated) array."""
        start = int(self._rng.integers(self._n))
        stride = 2 * int(self._rng.integers(self._n // 2 or 1)) + 1
        idx = (start + stride * self._steps) % self._n
        to_b = ~self._in_b[idx]
        self.values[idx] = np.where(to_b, self._pool_b[idx], self._pool_a[idx])
        self._in_b[idx] = to_b
        return self.values
