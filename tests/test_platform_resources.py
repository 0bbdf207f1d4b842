"""Tests for ResourceVector algebra and comparisons."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform_.profile import PlatformProfile
from repro.platform_.qos import FpsModel
from repro.platform_.resources import CPU, DIMENSIONS, GPU, ResourceVector

components = st.floats(0, 100, allow_nan=False)
vectors = st.builds(
    lambda c, g, m, r: ResourceVector(cpu=c, gpu=g, gpu_mem=m, ram=r),
    components, components, components, components,
)


class TestConstruction:
    def test_keyword_defaults(self):
        v = ResourceVector(cpu=10)
        assert v.cpu == 10 and v.gpu == 0 and v.gpu_mem == 0 and v.ram == 0

    def test_from_array(self):
        v = ResourceVector.from_array([1, 2, 3, 4])
        assert v.as_dict() == {"cpu": 1, "gpu": 2, "gpu_mem": 3, "ram": 4}

    def test_from_array_wrong_length(self):
        with pytest.raises(ValueError):
            ResourceVector.from_array([1, 2, 3])

    def test_coerce_mapping(self):
        v = ResourceVector.coerce({"cpu": 5, "gpu": 6})
        assert v.cpu == 5 and v.gpu == 6

    def test_coerce_rejects_unknown_dims(self):
        with pytest.raises(ValueError):
            ResourceVector.coerce({"vram": 5})

    def test_coerce_passthrough(self):
        v = ResourceVector(cpu=1)
        assert ResourceVector.coerce(v) is v

    def test_full_and_zeros(self):
        assert ResourceVector.full(100).array.tolist() == [100] * 4
        assert ResourceVector.zeros().array.tolist() == [0] * 4

    def test_array_is_readonly(self):
        v = ResourceVector(cpu=1)
        with pytest.raises(ValueError):
            v.array[0] = 5

    def test_getitem_by_name_and_index(self):
        v = ResourceVector(cpu=3, gpu=7)
        assert v["cpu"] == 3 and v[GPU] == 7


class TestAlgebra:
    def test_add_sub(self):
        a = ResourceVector(cpu=10, gpu=20)
        b = ResourceVector(cpu=1, gpu=2)
        assert (a + b).cpu == 11
        assert (a - b).gpu == 18

    def test_scalar_ops(self):
        v = ResourceVector(cpu=10) * 2
        assert v.cpu == 20
        assert (v / 4).cpu == 5

    def test_maximum_minimum(self):
        a = ResourceVector(cpu=10, gpu=1)
        b = ResourceVector(cpu=2, gpu=5)
        assert a.maximum(b).as_dict()["cpu"] == 10
        assert a.maximum(b).as_dict()["gpu"] == 5
        assert a.minimum(b).as_dict()["cpu"] == 2

    def test_clip(self):
        v = ResourceVector.from_array([-5, 50, 150, 0]).clip(0, 100)
        assert v.array.tolist() == [0, 50, 100, 0]

    def test_scale(self):
        v = ResourceVector(cpu=10, gpu=10).scale(ResourceVector(cpu=2, gpu=0.5, gpu_mem=1, ram=1))
        assert v.cpu == 20 and v.gpu == 5


class TestComparison:
    def test_fits_within(self):
        assert ResourceVector(cpu=10).fits_within(ResourceVector.full(10))
        assert not ResourceVector(cpu=10.1).fits_within(ResourceVector.full(10))

    def test_dominates(self):
        assert ResourceVector.full(5).dominates(ResourceVector(cpu=5))

    def test_equality_and_hash(self):
        a = ResourceVector(cpu=1.0)
        b = ResourceVector(cpu=1.0)
        assert a == b and hash(a) == hash(b)

    def test_is_nonnegative(self):
        assert ResourceVector().is_nonnegative()
        assert not ResourceVector.from_array([-1, 0, 0, 0]).is_nonnegative()

    def test_max_component(self):
        assert ResourceVector(cpu=3, gpu=9).max_component() == 9


@settings(max_examples=60, deadline=None)
@given(a=vectors, b=vectors)
def test_add_then_subtract_roundtrips(a, b):
    np.testing.assert_allclose((a + b - b).array, a.array, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(a=vectors, b=vectors)
def test_minimum_fits_within_both(a, b):
    m = a.minimum(b)
    assert m.fits_within(a) and m.fits_within(b)


@settings(max_examples=60, deadline=None)
@given(a=vectors, b=vectors)
def test_maximum_dominates_both(a, b):
    m = a.maximum(b)
    assert m.dominates(a) and m.dominates(b)


# ----------------------------------------------------------------------
# Bit-exactness against the numpy formulas each operation replaced
# ----------------------------------------------------------------------
#: Signed zeros, the 100 % clip edge, subnormals and the 1e-9 slack scale
#: are where a scalar reimplementation of a numpy expression can differ.
EDGE_FLOATS = (
    0.0, -0.0, 100.0, -100.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1e-9, -1e-9, 1e-300, 99.99999999999999,
    100.00000000000001,
)
exact_components = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
exact_vectors = st.lists(exact_components, min_size=4, max_size=4)
scalars = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def as_rv(values):
    return ResourceVector.from_array(values)


def arr(values):
    return np.asarray(values, dtype=float)


def same_bytes(vec, expected):
    """Exact float64 equality, signed zeros included."""
    return vec.array.tobytes() == np.asarray(expected, dtype=float).tobytes()


class TestNumpyEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(v=exact_vectors)
    def test_constructors_and_accessors(self, v):
        kw = ResourceVector(cpu=v[0], gpu=v[1], gpu_mem=v[2], ram=v[3])
        assert same_bytes(kw, v)
        assert same_bytes(ResourceVector.from_array(v), v)
        assert same_bytes(ResourceVector.from_array(arr(v)), v)
        assert same_bytes(ResourceVector.from_array(tuple(v)), v)
        assert same_bytes(ResourceVector.coerce(dict(zip(DIMENSIONS, v))), v)
        assert same_bytes(ResourceVector.full(v[0]), np.full(4, v[0]))
        rv = as_rv(v)
        assert arr(rv.values).tobytes() == arr(v).tobytes()
        got = [rv.cpu, rv.gpu, rv.gpu_mem, rv.ram]
        assert arr(got).tobytes() == arr(v).tobytes()
        by_name = [rv[d] for d in DIMENSIONS]
        assert arr(by_name).tobytes() == arr(v).tobytes()
        assert arr(list(rv.as_dict().values())).tobytes() == arr(v).tobytes()
        assert repr(rv) == "ResourceVector(" + ", ".join(
            f"{d}={x:.1f}" for d, x in zip(DIMENSIONS, arr(v))
        ) + ")"

    @settings(max_examples=300, deadline=None)
    @given(a=exact_vectors, b=exact_vectors)
    def test_elementwise_binary_ops(self, a, b):
        x, y = as_rv(a), as_rv(b)
        assert same_bytes(x + y, arr(a) + arr(b))
        assert same_bytes(x - y, arr(a) - arr(b))
        assert same_bytes(x + b, arr(a) + arr(b))
        assert same_bytes(x.maximum(y), np.maximum(arr(a), arr(b)))
        assert same_bytes(x.minimum(y), np.minimum(arr(a), arr(b)))
        assert same_bytes(x.scale(y), arr(a) * arr(b))

    @settings(max_examples=300, deadline=None)
    @given(a=exact_vectors, s=scalars)
    def test_scalar_ops(self, a, s):
        x = as_rv(a)
        assert same_bytes(x * s, arr(a) * float(s))
        assert same_bytes(s * x, arr(a) * float(s))
        if s != 0.0:
            with np.errstate(over="ignore", under="ignore"):
                expected = arr(a) / float(s)
            assert same_bytes(x / s, expected)

    @settings(max_examples=300, deadline=None)
    @given(a=exact_vectors, lo=scalars, hi=scalars)
    def test_clip(self, a, lo, hi):
        x = as_rv(a)
        assert same_bytes(x.clip(0.0, 100.0), np.clip(arr(a), 0.0, 100.0))
        assert same_bytes(x.clip(lo=0.0), np.clip(arr(a), 0.0, np.inf))
        assert same_bytes(x.clip(-0.0, 100.0), np.clip(arr(a), -0.0, 100.0))
        assert same_bytes(x.clip(lo, hi), np.clip(arr(a), lo, hi))

    @settings(max_examples=300, deadline=None)
    @given(a=exact_vectors, b=exact_vectors, slack=st.sampled_from([1e-9, 0.0, 0.5]))
    def test_comparisons(self, a, b, slack):
        x, y = as_rv(a), as_rv(b)
        assert x.fits_within(y, slack=slack) == bool(
            np.all(arr(a) <= arr(b) + slack)
        )
        assert x.dominates(y, slack=slack) == bool(
            np.all(arr(a) + slack >= arr(b))
        )
        assert x.is_nonnegative() == bool(np.all(arr(a) >= -1e-9))
        assert (
            np.float64(x.max_component()).tobytes()
            == np.float64(arr(a).max()).tobytes()
        )

    @settings(max_examples=300, deadline=None)
    @given(
        a=exact_vectors,
        rel=st.lists(st.floats(-3e-5, 3e-5), min_size=4, max_size=4),
        absolute=st.lists(st.floats(-3e-8, 3e-8), min_size=4, max_size=4),
    )
    def test_equality_and_hash(self, a, rel, absolute):
        b = arr(a) * (1.0 + arr(rel)) + arr(absolute)
        x, y = as_rv(a), as_rv(b)
        assert (x == y) == bool(np.allclose(arr(a), b))
        assert hash(x) == hash(tuple(np.round(arr(a), 9).tolist()))
        assert hash(y) == hash(tuple(np.round(b, 9).tolist()))

    @pytest.mark.parametrize(
        "a, b",
        [
            ([np.inf, 0, 0, 0], [np.inf, 0, 0, 0]),
            ([np.inf, 0, 0, 0], [-np.inf, 0, 0, 0]),
            ([1e300, 0, 0, 0], [np.inf, 0, 0, 0]),
            ([np.inf, 0, 0, 0], [1e300, 0, 0, 0]),
        ],
    )
    def test_equality_with_infinities(self, a, b):
        assert (as_rv(a) == as_rv(b)) == bool(np.allclose(arr(a), arr(b)))

    @settings(max_examples=200, deadline=None)
    @given(
        demand=exact_vectors,
        factors=st.lists(
            st.floats(0.05, 5.0, allow_nan=False), min_size=4, max_size=4
        ),
    )
    def test_platform_scaling(self, demand, factors):
        profile = PlatformProfile(
            "p", cpu_factor=factors[0], gpu_factor=factors[1],
            gpu_mem_factor=factors[2], ram_factor=factors[3],
        )
        expected = np.clip(arr(demand) * arr(factors), 0.0, 100.0)
        assert same_bytes(profile.scale_demand(as_rv(demand)), expected)
        assert same_bytes(profile.factors, factors)

    @settings(max_examples=300, deadline=None)
    @given(demand=exact_vectors, allocation=exact_vectors)
    def test_fps_satisfaction(self, demand, allocation):
        d, a = arr(demand), arr(allocation)
        active = d > 1e-9
        if not active.any():
            expected = 1.0
        else:
            expected = float(np.clip((a[active] / d[active]).min(), 0.0, 1.0))
        got = FpsModel().satisfaction(as_rv(demand), as_rv(allocation))
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
