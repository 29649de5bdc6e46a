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

A draw of count values gives, in order, the doubles of the next count
steps of the scalar recurrence x <- xorshift64(x).  xorshift64 is linear
over GF(2)^64, so L steps of it are one fixed 64x64 bit matrix T^L
(Haramoto et al., "Efficient jump ahead for F2-linear random number
generators", INFORMS J. Computing 20(3), 2008), applied as eight
byte-lookup tables.  A draw fills one array of states:

* Head: the first min(count, 64) states come from the scalar recurrence,
  so a draw of at most 64 values (any instance with n <= 6 and m <= 3)
  runs it alone.
* Doubling: while k < 8192, states [k, 2k) are T^k applied to states
  [0, k), so the filled prefix doubles at each step.
* Blocks: past 8192 states, each block of 8192 is T^8192 applied to the
  block before it, so the lookups stay in a cache-sized window.

The star step, the top 53 bits and the scaling then run in place on that
array, in the same floating-point operations as lo + (hi - lo) * u.

Draw order is Q row-major (n*n draws), then A row-major (m*n), then c
(n).  Q is symmetrized as (Q+Q')/2 and, unless dominance_boost is off,
its diagonal is replaced by (row absolute sum - diagonal) + 1, which
makes Q strictly diagonally dominant and hence positive definite.  The
sum Q+Q' is the one n*n array formed and is halved in place; A and c are
copied out of the draw, whose buffer is then freed, so no more than two
n*n arrays are alive at once.  The right-hand side is the midpoint rule
b = A l + 0.5 (A u - A l) with l, u the smallest/largest candidate value,
so x = l is always feasible when A >= 0.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import DiscreteQP

_GOLDEN = 0x9E3779B97F4A7C15
_STAR = 0x2545F4914F6CDD1D
_MASK = (1 << 64) - 1
_HALF_MAX = sys.float_info.max / 2
# States drawn by the scalar recurrence, and the largest jump (the
# doubling's last step and the lag of every block after it).
_HEAD = 64
_BLOCK = 8192


def _step(x: int) -> int:
    """One xorshift64 step on a state held as a Python int."""
    x ^= x >> 12
    x ^= (x << 25) & _MASK
    return x ^ (x >> 27)


@functools.cache
def _jump_tables(steps: int) -> np.ndarray:
    """T^steps for a power of two ``steps`` as eight byte-lookup tables:
    T^steps(x) is the XOR over bytes b of ``tables[b, byte b of x]``."""
    if steps == 1:
        cols = np.array([_step(1 << j) for j in range(64)], dtype=np.uint64)
    else:
        half = _jump_tables(steps // 2)
        units = np.uint64(1) << np.arange(64, dtype=np.uint64)
        cols = _jump(half, _jump(half, units))
    # cols[j] is the image of bit j; tables[b, v] is the XOR of the images
    # of the bits 8b + i for the bits i set in v.
    tables = np.zeros((8, 256), dtype=np.uint64)
    for bit in range(8):
        lo = 1 << bit
        tables[:, lo:2 * lo] = tables[:, :lo] ^ cols[bit::8, None]
    tables.flags.writeable = False
    return tables


def _jump(tables: np.ndarray, states: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Advance every state in ``states`` by the jump ``tables`` encode,
    into ``out`` (which must not overlap ``states``) when given."""
    octets = states.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    # mode="clip" lets take write straight into out (the default "raise"
    # buffers it); byte indices are always in range.
    out = np.take(tables[0], octets[:, 0], out=out, mode="clip")
    for b in range(1, 8):
        out ^= np.take(tables[b], octets[:, b])
    return out


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

    def draw(self, count: int, lo: float, hi: float) -> np.ndarray:
        """The next ``count`` doubles u of the stream, each in [0, 1), as
        the array of ``lo + (hi - lo) * u``."""
        x, head = self.state, []
        for _ in range(min(count, _HEAD)):
            x = _step(x)
            head.append(x)
        states = np.empty(count, dtype=np.uint64)
        states[:len(head)] = head
        k = _HEAD
        while k < count:
            lag = min(k, _BLOCK)
            stop = min(k + lag, count)
            _jump(_jump_tables(lag), states[k - lag:stop - lag],
                  out=states[k:stop])
            k = stop
        if count > _HEAD:
            x = int(states[-1])
        self.state = x
        states *= np.uint64(_STAR)
        states >>= np.uint64(11)
        u = states * (1.0 / (1 << 53))
        u *= hi - lo
        u += lo
        return u


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
        for name in ("n", "m", "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        values = tuple(float(v) for v in self.value_set)
        if not values:
            raise ValueError("value_set must be non-empty")
        if not all(map(math.isfinite, values)):
            raise ValueError("value_set has a non-finite entry")
        if len(set(values)) != len(values):
            raise ValueError("value_set contains duplicate values")
        lo, hi = (float(self.coeff_range[0]), float(self.coeff_range[1]))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("coeff_range has a non-finite bound")
        if not lo < hi:
            raise ValueError("coeff_range must be a non-empty interval")
        if not math.isfinite(hi - lo):
            raise ValueError("coeff_range is wider than the largest double")
        object.__setattr__(self, "value_set", values)
        object.__setattr__(self, "coeff_range", (lo, hi))


def generate(spec: GenSpec) -> DiscreteQP:
    """Draw one instance; deterministic for a given GenSpec."""
    n, m = spec.n, spec.m
    lo, hi = spec.coeff_range
    u = XorShift64Star(spec.seed).draw(n * n + m * n + n, lo, hi)
    A = u[n * n:n * n + m * n].reshape(m, n).copy()
    c = u[n * n + m * n:].copy()
    Q = u[:n * n].reshape(n, n)
    l_vec = np.full(n, min(spec.value_set))
    u_vec = np.full(n, max(spec.value_set))
    # An overflow here is reported below, naming the input at fault.
    with np.errstate(over="ignore", invalid="ignore"):
        Q = Q + Q.T
        del u           # frees the draw: A and c are copies
        Q /= 2.0
        if spec.dominance_boost:
            d = np.abs(Q).sum(axis=1) - np.abs(np.diag(Q))
            np.fill_diagonal(Q, d + 1.0)
        b = A @ l_vec + 0.5 * (A @ u_vec - A @ l_vec)
    # DiscreteQP forms Q + Q' again, so no entry of Q may pass half the
    # largest double.  None passes n max(|lo|, |hi|) + 1 (the dominance
    # step sums a row), so Q is tested entry by entry only when that bound
    # comes near; a NaN fails both comparisons.  A needs no test: GenSpec
    # keeps lo, hi and hi - lo finite, so each lo + (hi - lo) u with u in
    # [0, 1) rounds to a finite value of at most max(|lo|, |hi|).
    if n * max(-lo, hi) >= _HALF_MAX / 2 and not (
            -_HALF_MAX <= Q.min() and Q.max() <= _HALF_MAX):
        raise ValueError("coeff_range is too wide: Q overflows")
    if not all(map(math.isfinite, b.tolist())):
        # Coefficients past 1 in size scale the values up: name them too.
        raise ValueError("the value set's range overflows b" + (
            f" at coeff_range {spec.coeff_range}" if max(-lo, hi) > 1 else ""))
    return DiscreteQP(Q=Q, c=c, A=A, b=b, U=(spec.value_set,) * n)
