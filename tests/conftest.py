import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from tetrachain.geometry import Tetrahedron, invisible_t0
from tetrachain.precision import RealCtx

settings.register_profile(
    "research",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("research")


# near-closing quadrahelices far past the exact products, for the run product
L_99_DIGITS = int(
    "521269338782055651792691214128196053088348030247372007924246566932"
    "650514801545115813925856156787510"
)
L_17_DIGITS = 30170783468093193


@pytest.fixture(scope="session")
def ctx40():
    return RealCtx(digits=40)


@pytest.fixture(scope="session")
def ctx60():
    return RealCtx(digits=60)


@st.composite
def valid_strings(draw, min_size=1, max_size=12):
    """Reflection strings: letters in 1..4, no two adjacent letters equal."""
    n = draw(st.integers(min_size, max_size))
    first = draw(st.integers(1, 4))
    out = [first]
    for _ in range(n - 1):
        step = draw(st.integers(1, 3))
        out.append((out[-1] - 1 + step) % 4 + 1)
    return tuple(out)


def rotate(s, i: int) -> tuple:
    """Cyclic left rotation by i: the loop s read from cut i."""
    i %= len(s)
    return tuple(s[i:]) + tuple(s[:i])


def random_valid_string(rng: random.Random, n: int) -> tuple:
    s = [rng.randrange(1, 5)]
    while len(s) < n:
        s.append((s[-1] - 1 + rng.randrange(1, 4)) % 4 + 1)
    return tuple(s)


def reference_fold(s, ctx) -> list:
    """The tetrahedra T_1.. of the chain s by Cartesian Householder reflections.

    A test-local path independent of the barycentric products that
    realize_chain reads: each step reflects the vertex in the symbol's slot
    across the plane through the other three.
    """
    with ctx.work():
        vs = list(invisible_t0(ctx).vertices)
        out = []
        for sym in s:
            p = vs[sym - 1]
            a, b, d = (vs[k] for k in range(4) if k != sym - 1)
            u = [b[k] - a[k] for k in range(3)]
            v = [d[k] - a[k] for k in range(3)]
            n = [
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            ]
            t = 2 * sum((p[k] - a[k]) * n[k] for k in range(3)) / sum(x * x for x in n)
            vs[sym - 1] = tuple(p[k] - t * n[k] for k in range(3))
            out.append(Tetrahedron(tuple(vs)))
        return out
