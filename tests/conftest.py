import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from cliffbits import DyadicRational, Metric, Multivector

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# scalars that are neither int nor DyadicRational: both multivector types
# reject them as coefficients and as factors
OTHER_SCALARS = [complex(0, 1), Fraction(1, 3), 0.5, "1"]


@st.composite
def dyadics(draw, max_num: int = 1 << 12, max_exp: int = 8):
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    exp = draw(st.integers(min_value=0, max_value=max_exp))
    return DyadicRational(num, exp)


@st.composite
def multivectors(draw, metric: Metric, max_terms: int = 5):
    dim = 1 << metric.n
    masks = draw(st.lists(st.integers(min_value=0, max_value=dim - 1),
                          max_size=max_terms, unique=True))
    out = Multivector.zero(metric)
    for mask in masks:
        coeff = draw(dyadics(max_num=64, max_exp=4))
        out = out + coeff * Multivector.from_blade(metric, mask)
    return out


@pytest.fixture
def rng():
    return random.Random(0xC71FF)
