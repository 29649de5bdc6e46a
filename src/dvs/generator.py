"""Random instance family for scaling tests and property sweeps.

Instances must be bit-reproducible across implementations and platforms,
so drawing uses a fixed, fully documented 64-bit generator rather than
any library RNG:

* State initialization: the seed is XORed with 0x9E3779B97F4A7C15 and
  passed through two rounds of the splitmix64 output function (so that
  small consecutive seeds give unrelated streams); a zero state is
  replaced by 0x2545F4914F6CDD1D.
* Stream: xorshift64 with shifts (12, 25, 27), output multiplied by
  0x2545F4914F6CDD1D (the "star" step).
* Doubles: the top 53 bits of each 64-bit output, scaled by 2^-53,
  giving uniforms in [0, 1).

Draw order is Q row-major (n*n draws), then A row-major (m*n), then c
(n).  Q is symmetrized as (Q+Q')/2 and, unless dominance_boost is off,
its diagonal is replaced by (row absolute sum - diagonal) + 1, which
makes Q strictly diagonally dominant and hence positive definite.  The
right-hand side is the midpoint rule b = A l + 0.5 (A u - A l) with l, u
the smallest/largest candidate value, so x = l is always feasible when
A >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DiscreteQP

_GOLDEN = 0x9E3779B97F4A7C15
_STAR = 0x2545F4914F6CDD1D
_MASK = (1 << 64) - 1


class XorShift64Star:
    """The documented xorshift64* stream; see the module docstring."""

    def __init__(self, seed: int):
        s = (int(seed) ^ _GOLDEN) & _MASK
        for _ in range(2):
            s = (s + _GOLDEN) & _MASK
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            s = z ^ (z >> 31)
        self.state = s if s else _STAR

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _STAR) & _MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def fill(self, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
        span = hi - lo
        return np.array([[lo + span * self.uniform() for _ in range(cols)]
                         for _ in range(rows)])


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random instance (see module docstring for rules)."""

    n: int
    m: int
    seed: int
    value_set: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    coeff_range: tuple[float, float] = (0.0, 1.0)
    dominance_boost: bool = True

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        values = tuple(float(v) for v in self.value_set)
        if not values:
            raise ValueError("value_set must be non-empty")
        if len(set(values)) != len(values):
            raise ValueError("value_set contains duplicate values")
        lo, hi = (float(self.coeff_range[0]), float(self.coeff_range[1]))
        if not lo < hi:
            raise ValueError("coeff_range must be a non-empty interval")
        object.__setattr__(self, "value_set", values)
        object.__setattr__(self, "coeff_range", (lo, hi))


def generate(spec: GenSpec) -> DiscreteQP:
    """Draw one instance; deterministic for a given GenSpec."""
    rng = XorShift64Star(spec.seed)
    lo, hi = spec.coeff_range
    Q = rng.fill(spec.n, spec.n, lo, hi)
    Q = (Q + Q.T) / 2.0
    if spec.dominance_boost:
        d = np.abs(Q).sum(axis=1) - np.abs(np.diag(Q))
        np.fill_diagonal(Q, d + 1.0)
    A = rng.fill(spec.m, spec.n, lo, hi)
    c = rng.fill(1, spec.n, lo, hi)[0]
    l_vec = np.full(spec.n, min(spec.value_set))
    u_vec = np.full(spec.n, max(spec.value_set))
    b = A @ l_vec + 0.5 * (A @ u_vec - A @ l_vec)
    return DiscreteQP(Q=Q, c=c, A=A, b=b, U=tuple(spec.value_set for _ in range(spec.n)))
