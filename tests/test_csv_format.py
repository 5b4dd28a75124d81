"""The CSV writer's vectorised ``%.12g`` formatter against Python's ``%``.

Over a million doubles in all: random bit patterns, subnormals, the
neighbours of every power of ten, exact and near ties of the 12th digit,
integers near 10^11 and 10^12, values on both sides of the switch between
fixed and exponent notation, digit strings ending in 1 to 11 zeros, and
the special values.
"""

from fractions import Fraction

import numpy as np
import pytest

from fdikit.cli import _FIELD, _g12_fields


def assert_like_percent(values):
    values = np.asarray(values, dtype=float).ravel()
    fields = _g12_fields(values)
    assert fields.shape == (values.size, _FIELD) and not fields[:, -1].any()
    lines = np.concatenate((fields, np.full((values.size, 1), ord("\n"), np.uint8)), axis=1)
    got = lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    expected = ["%.12g" % v for v in values.tolist()]
    assert len(got) == len(expected)
    bad = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not bad, (len(bad), bad[:5])


def signed(values):
    return np.concatenate((values, -values))


def test_random_bit_patterns():
    rng = np.random.default_rng(1)
    assert_like_percent(rng.integers(0, 2 ** 64, 600_000, dtype=np.uint64).view(np.float64))


def test_subnormals():
    rng = np.random.default_rng(2)
    bits = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64)
    bits[::2] |= np.uint64(1 << 63)  # both signs
    assert_like_percent(bits.view(np.float64))


def test_neighbours_of_powers_of_ten():
    powers = np.array([float(f"1e{q}") for q in range(-330, 309)])
    near = [powers]
    for direction in (0.0, np.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, direction)
            near.append(step)
    assert_like_percent(signed(np.concatenate(near)))


def exact_ties(rng, e: int, count: int) -> np.ndarray:
    """Doubles equal to (k + 1/2) * 10^(e - 11) for 12-digit integers k."""
    p = 11 - e
    if p >= 0:  # (2k + 1) / (2 * 10^p) = j / 2^(p + 1) for 2k + 1 = j * 5^p
        lo, hi = -(-(2 * 10 ** 11 + 1) // 5 ** p), (2 * 10 ** 12 - 1) // 5 ** p
        j = rng.integers(lo // 2, (hi - 1) // 2 + 1, count) * 2 + 1
        return j * 2.0 ** -(p + 1)
    odd = rng.integers(10 ** 11, 10 ** 12, count) * 2 + 1  # (2k + 1) * 10^-p / 2
    return (odd * 5 ** -p).astype(float) * 2.0 ** (-p - 1)


# ties exist as doubles for these exponents only: (2k + 1) * 5^|p| must fit in 53 bits
TIE_EXPONENTS = range(-6, 17)


def test_exact_ties_and_their_neighbours():
    rng = np.random.default_rng(4)
    ties = np.concatenate([exact_ties(rng, e, 4_000) for e in TIE_EXPONENTS])
    for v in rng.choice(ties, 200).tolist():
        scaled = Fraction(v) / Fraction(10) ** (int(np.floor(np.log10(v))) - 11)
        assert scaled.denominator == 2 and 10 ** 11 <= scaled < 10 ** 12
    near = np.concatenate((ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)))
    assert_like_percent(signed(near))


def test_integers_near_the_twelve_digit_edges():
    edges = [np.arange(1e11 - 2000, 1e11 + 2000, 0.25),
             np.arange(1e12 - 2000, 1e12 + 2000, 0.125)]
    assert_like_percent(signed(np.concatenate(edges)))


def test_both_sides_of_the_notation_switch():
    # '%g' prints fixed notation for decimal exponents -4..11 and e+XX otherwise
    rng = np.random.default_rng(6)
    values = 10.0 ** rng.uniform(-8.0, 15.0, 200_000)
    values[::3] = np.round(values[::3], 3)  # shorter digit strings
    assert_like_percent(signed(values))


def test_trailing_zeros_across_digit_groups():
    # 12-digit strings that end in 1..11 zeros, in both notations: the
    # dropped zeros span one, two or three of the formatter's 4-digit
    # groups.  Random bit patterns almost never end in a 0000 group.
    rng = np.random.default_rng(8)
    values, kept = [], []
    for zeros in range(1, 12):
        m = rng.integers(10 ** (11 - zeros), 10 ** (12 - zeros), 30)
        m += m % 10 == 0  # the last kept digit is not a zero
        for j in range(-20, 5):  # printed exponents -9..15
            values += [float(f"{k}e{j}") for k in (m * 10 ** zeros).tolist()]
            kept += [12 - zeros] * m.size
    for v, count in zip(values, kept):
        assert len(("%.11e" % v).split("e")[0].replace(".", "").rstrip("0")) == count
    edges = [1.0, 1.2e5, 1e11, 1.5e11, 100000000001.0, 100010000000.0, 1.00000001, 1e-5, 1e15]
    assert_like_percent(signed(np.array(values + edges)))


@pytest.mark.parametrize("value", [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                                   5e-324, 1e-280, 1e280, 1.7976931348623157e308])
def test_special_values(value):
    assert_like_percent([value, -value])
