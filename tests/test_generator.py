"""Pinned-PRNG instance generation: bit-reproducibility and family rules."""

import numpy as np
import pytest

from dvs.generator import GenSpec, XorShift64Star, generate
from dvs.model import is_feasible

_MASK = (1 << 64) - 1


def reference_stream(seed, count):
    """Independent re-implementation of the documented generator.

    Written from the algorithm description alone (splitmix64-style seed
    scrambling, xorshift64 with shifts 12/25/27, star multiplier), not by
    calling into the package, so the two must agree bit for bit.
    """
    s = (seed ^ 0x9E3779B97F4A7C15) & _MASK
    for _ in range(2):
        s = (s + 0x9E3779B97F4A7C15) & _MASK
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        s = z ^ (z >> 31)
    if s == 0:
        s = 0x2545F4914F6CDD1D
    out = []
    for _ in range(count):
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK
        s ^= s >> 27
        out.append((s * 0x2545F4914F6CDD1D) & _MASK)
    return out


def test_stream_matches_independent_implementation():
    for seed in (0, 1, 42, 123456789, 2**63):
        rng = XorShift64Star(seed)
        assert [rng.next_u64() for _ in range(50)] == reference_stream(seed, 50)


def test_stream_golden_values():
    rng = XorShift64Star(0)
    assert rng.next_u64() == 8439743556365901464
    rng = XorShift64Star(1)
    assert rng.next_u64() == 1785063901177896925
    rng = XorShift64Star(42)
    assert [rng.next_u64() for _ in range(3)] == [
        17119605561945446605, 17024073657157633461, 7681490484071380900]


def test_uniform_uses_top_53_bits():
    for seed in (0, 7):
        expected = [(u >> 11) * 2.0 ** -53 for u in reference_stream(seed, 20)]
        rng = XorShift64Star(seed)
        got = [rng.uniform() for _ in range(20)]
        assert got == expected
        assert all(0.0 <= v < 1.0 for v in got)


def test_generate_is_deterministic():
    spec = GenSpec(n=4, m=3, seed=99)
    p1, p2 = generate(spec), generate(spec)
    assert np.array_equal(p1.Q, p2.Q)
    assert np.array_equal(p1.A, p2.A)
    assert np.array_equal(p1.c, p2.c)
    assert np.array_equal(p1.b, p2.b)
    p3 = generate(GenSpec(n=4, m=3, seed=100))
    assert not np.array_equal(p1.Q, p3.Q)


def test_generate_draw_order_and_rules():
    spec = GenSpec(n=3, m=2, seed=5)
    p = generate(spec)
    u = iter((v >> 11) * 2.0 ** -53 for v in reference_stream(5, 3 * 3 + 2 * 3 + 3))
    Q_raw = np.array([[next(u) for _ in range(3)] for _ in range(3)])
    Q = (Q_raw + Q_raw.T) / 2.0
    d = np.abs(Q).sum(axis=1) - np.abs(np.diag(Q))
    np.fill_diagonal(Q, d + 1.0)
    A = np.array([[next(u) for _ in range(3)] for _ in range(2)])
    c = np.array([next(u) for _ in range(3)])
    assert np.array_equal(p.Q, Q)
    assert np.array_equal(p.A, A)
    assert np.array_equal(p.c, c)
    lo, hi = 1.0, 5.0
    assert np.allclose(p.b, A @ np.full(3, lo)
                       + 0.5 * (A @ np.full(3, hi) - A @ np.full(3, lo)))


def test_generated_q_is_positive_definite():
    for seed in range(10):
        p = generate(GenSpec(n=6, m=2, seed=seed))
        assert np.linalg.eigvalsh(p.Q)[0] > 0.0


def test_generated_instance_has_feasible_point():
    for seed in range(10):
        p = generate(GenSpec(n=4, m=3, seed=seed))
        low = np.full(4, min(p.U[0]))
        assert is_feasible(p, low)


def test_dominance_boost_can_be_disabled():
    on = generate(GenSpec(n=4, m=1, seed=3))
    off = generate(GenSpec(n=4, m=1, seed=3, dominance_boost=False))
    assert not np.array_equal(np.diag(on.Q), np.diag(off.Q))
    off_diag = ~np.eye(4, dtype=bool)
    assert np.array_equal(on.Q[off_diag], off.Q[off_diag])


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=0, m=1, seed=0)
    with pytest.raises(ValueError):
        GenSpec(n=1, m=0, seed=0)
    with pytest.raises(ValueError):
        GenSpec(n=1, m=1, seed=0, value_set=(1.0, 1.0))
    with pytest.raises(ValueError):
        GenSpec(n=1, m=1, seed=0, coeff_range=(1.0, 1.0))


def test_custom_value_set_is_used():
    p = generate(GenSpec(n=2, m=1, seed=0, value_set=(-1.0, 0.5)))
    assert p.U == ((-1.0, 0.5), (-1.0, 0.5))
