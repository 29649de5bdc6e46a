"""Pinned-PRNG instance generation: bit-reproducibility and family rules."""

import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dvs.generator import GenSpec, XorShift64Star, generate
from dvs.model import is_feasible

from families import criterion4_spec, indefinite_spec, suite_spec

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


def reference_uniforms(seed, count):
    """The doubles of the reference stream: the top 53 bits, scaled."""
    return [(u >> 11) * 2.0 ** -53 for u in reference_stream(seed, count)]


def test_stream_matches_independent_implementation():
    for seed in (0, 1, 42, 123456789, 2**63):
        rng = XorShift64Star(seed)
        assert rng.draw(50, 0.0, 1.0).tolist() == reference_uniforms(seed, 50)


def test_stream_golden_values():
    for seed, golden in ((0, [8439743556365901464]),
                         (1, [1785063901177896925]),
                         (42, [17119605561945446605, 17024073657157633461,
                               7681490484071380900])):
        got = XorShift64Star(seed).draw(len(golden), 0.0, 1.0)
        assert got.tolist() == [(u >> 11) * 2.0 ** -53 for u in golden]


def test_uniform_uses_top_53_bits():
    for seed in (0, 7):
        rng = XorShift64Star(seed)
        got = rng.draw(20, 0.0, 1.0).tolist()
        assert got == reference_uniforms(seed, 20)
        assert all(0.0 <= v < 1.0 for v in got)
        # A second draw goes on where the first stopped.
        assert (rng.draw(5, 0.0, 1.0).tolist()
                == reference_uniforms(seed, 25)[20:])


# The cases of counts 1 to 5000 keep the ids they were first run under,
# count-L with L the lane count of an earlier fixed-lane draw, so their
# results stay comparable by name across versions.
@pytest.mark.parametrize("count", [
    pytest.param(1, id="1-8"),
    63, 64, 65,           # inside, at and one past the scalar head
    pytest.param(127, id="127-128"),      # around one doubling step's end
    pytest.param(128, id="128-128"),
    pytest.param(129, id="129-128"),
    pytest.param(300, id="300-128"),      # a doubling step cut short
    pytest.param(5000, id="5000-512"),    # six doublings and part of one
    8191, 8192, 8193,     # around the end of the last doubling step
    16384, 16385,         # around the end of the first 8192-state block
    20000,                # a second block cut short, at 3616 states
])
def test_array_draw_matches_the_scalar_stream(count):
    for seed, (lo, hi) in ((0, (0.0, 1.0)), (42, (-1.0, 1.0)),
                           (2**63, (-3.5, 7.25))):
        rng = XorShift64Star(seed)
        got = rng.draw(count, lo, hi)
        ref = reference_uniforms(seed, count + 3)
        expected = [lo + (hi - lo) * u for u in ref[:count]]
        assert got.dtype == np.float64 and got.tolist() == expected
        # The stream goes on where the array draw stopped.
        assert rng.draw(3, 0.0, 1.0).tolist() == ref[count:]


# sha256 of the bytes of Q, A, c and b, recorded with the one-value-at-a-
# time generator that the array draw replaced.
GOLDEN_SHA256 = [
    (suite_spec(20),
     "4be21bb954883aead697c97bb901c9e76e44396297d1e3c54d67101d11a33c90"),
    (suite_spec(50),
     "9d42fe6d06b9b2f6e5adbefd1b09780a3f4ec024da9755f6139df7d1808eb178"),
    (suite_spec(100),
     "c7b33ee78248981fb4f1d4de96ba7325f78d29a741ab5e6a989105f6b33cfa9b"),
    (suite_spec(300),
     "f0170c1a377d803db48009fe856f21db2627a7255c04ee9677fd4c3bf8ccbc7b"),
    (suite_spec(1000),
     "9b6430f61d3b24b6c123cdf6ae29003e2f4c04f5d6977502c347350dd0b91436"),
    (indefinite_spec(0),
     "f9539cc7a8b2309c6f98d3f5848330afe3f9e53f7884bab483b0c1500575a11e"),
    (GenSpec(6, 3, 11, coeff_range=(-1.0, 1.0)),
     "92e15ee3b5b39972ff2b3c34f71c076df54f04d144e47812752c234a031849ca"),
]


@pytest.mark.parametrize("spec, digest", GOLDEN_SHA256, ids=[
    f"n{s.n}-seed{s.seed}" for s, _ in GOLDEN_SHA256])
def test_generate_matches_pinned_bytes(spec, digest):
    p = generate(spec)
    h = hashlib.sha256()
    for a in (p.Q, p.A, p.c, p.b):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


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
    # A >= 0 and b = A l + (A u - A l) / 2 put the lower corner
    # (min U_1, ..., min U_n) inside Ax <= b.  So every k of criterion 4's
    # family is feasible, at its base seed 1000 and at others the
    # benchmark sweeps, and the family needs no infeasibility skip.
    specs = [GenSpec(n=4, m=3, seed=seed) for seed in range(10)]
    specs += [criterion4_spec(k, base) for base in (1000, 5, 41, 2500, 7717)
              for k in range(1, 201)]
    for p in map(generate, specs):
        assert is_feasible(p, np.array([min(ui) for ui in p.U]))


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


@pytest.mark.parametrize("coeff_range, message", [
    ((0.0, float("inf")), "coeff_range has a non-finite bound"),
    ((float("-inf"), 0.0), "coeff_range has a non-finite bound"),
    ((-1e308, 1e308), "coeff_range is wider than the largest double"),
], ids=["upper-inf", "lower-inf", "width-overflows"])
def test_spec_refuses_a_coeff_range_the_draw_cannot_scale(coeff_range,
                                                          message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            GenSpec(n=3, m=2, seed=1, coeff_range=coeff_range)


@pytest.mark.parametrize("coeff_range, dominance_boost", [
    ((0.0, 1e308), True),           # the dominance step's row sums overflow
    ((1e308, 1.5e308), False),      # Q + Q' overflows
], ids=["dominance-step", "symmetrization"])
def test_generate_blames_coeff_range_when_q_overflows(coeff_range,
                                                      dominance_boost):
    spec = GenSpec(n=3, m=2, seed=1, coeff_range=coeff_range,
                   dominance_boost=dominance_boost)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^coeff_range is too wide: Q overflows$"):
            generate(spec)


def test_generate_names_coeff_range_when_b_overflows():
    # Q + Q' stays finite at seed 1, but A's entries near 1e308 make A u
    # overflow with the default values 1..5: both inputs are named.
    spec = GenSpec(n=3, m=2, seed=1, coeff_range=(0.0, 1e308),
                   dominance_boost=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(
                "the value set's range overflows b at coeff_range "
                "(0.0, 1e+308)") + "$"):
            generate(spec)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", 1.9), ("seed", 1.0), ("seed", "7"),
    ("seed", True), ("n", 2.0), ("n", True), ("m", 1.0), ("m", None)])
def test_spec_refuses_non_integer_sizes_and_seed(field, value):
    # A float seed would otherwise be truncated: seeds 1.5 and 1.9 would
    # draw seed 1's instance under specs that compare unequal.
    args = {"n": 2, "m": 1, "seed": 1, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        GenSpec(**args)


def test_spec_accepts_numpy_integers():
    spec = GenSpec(n=np.int64(3), m=np.int32(2), seed=np.uint64(5))
    p = generate(spec)
    assert p.Q.shape == (3, 3)
    assert np.array_equal(p.Q, generate(GenSpec(n=3, m=2, seed=5)).Q)


def test_custom_value_set_is_used():
    p = generate(GenSpec(n=2, m=1, seed=0, value_set=(-1.0, 0.5)))
    assert p.U == ((-1.0, 0.5), (-1.0, 0.5))


def test_generate_peak_memory_stays_near_two_q():
    # The draw's buffer is freed once Q + Q' is formed, and Q is halved and
    # symmetrized in place, so at most two n*n arrays are alive at once.
    spec = GenSpec(1000, 5, 5242)
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * spec.n ** 2
