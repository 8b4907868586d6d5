"""JSON encoding of library values: plain trees, exact floats, stable bytes."""

import json
import struct

import numpy as np
import pytest

from opalab import BoundarySet, CoeffSeries, ZeroFreeApproxResult, ZeroFreeReport, ZeroFreeTrace
from opalab.serialize import coeff_series_from_json, dumps, to_jsonable


def bits(x):
    return struct.pack("<d", x)


def assert_same_floats(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is float and bits(g) == bits(w)


def test_coeff_series_round_trips_bit_exact():
    coeffs = [-0.0, 1e-300, 1.0 / 3.0 + 2j, 1e16]
    a = CoeffSeries(coeffs, tail_bound=0.1)
    tree = json.loads(dumps(to_jsonable(a)))
    assert sorted(tree) == ["coeffs", "tail_bound"]
    assert_same_floats([x for pair in tree["coeffs"] for x in pair],
                       [x for c in coeffs for x in (complex(c).real, complex(c).imag)])
    assert_same_floats([tree["tail_bound"]], [0.1])
    back = coeff_series_from_json(tree)
    assert back.coeffs.tobytes() == a.coeffs.tobytes()


def test_nested_dataclasses_become_field_dicts():
    report = ZeroFreeReport(True, 0, 0.25, 16384)
    result = ZeroFreeApproxResult(
        P=CoeffSeries([1.0, 0.5j]), report=report, space_error=0.01,
        boundary_error=0.02, trace=ZeroFreeTrace(dilation=0.99, level=8, degree=1),
    )
    assert to_jsonable(result) == {
        "P": {"coeffs": [[1.0, 0.0], [0.0, 0.5]], "tail_bound": 0.0},
        "report": {
            "zero_free": True, "winding_number": 0, "min_modulus_on_circle": 0.25,
            "grid_size": 16384, "indeterminate": False,
        },
        "space_error": 0.01,
        "boundary_error": 0.02,
        "trace": {"dilation": 0.99, "level": 8, "degree": 1},
    }

    E = BoundarySet(points=(0.5, 3.0), arcs=((1.0, 0.25), (5.0, 0.125)))
    assert to_jsonable({"set": E}) == {
        "set": {"points": list(E.points), "arcs": [[c, hw] for c, hw in E.arcs]}
    }


def test_non_finite_values_become_strings_and_arrays_become_floats():
    assert [to_jsonable(x) for x in (np.nan, np.inf, -np.inf)] == ["nan", "inf", "-inf"]
    assert to_jsonable(float("nan")) == "nan"
    assert to_jsonable(complex(np.inf, -0.5)) == ["inf", -0.5]
    assert to_jsonable(np.array([1.5, np.nan, np.inf, -np.inf])) == [1.5, "nan", "inf", "-inf"]
    assert to_jsonable(np.array([complex(np.nan, 1.0), complex(2.0, -np.inf)])) == [
        ["nan", 1.0], [2.0, "-inf"],
    ]
    ints = to_jsonable(np.arange(3))
    assert ints == [0.0, 1.0, 2.0] and all(type(v) is float for v in ints)
    scalars = to_jsonable([np.float64(2.5), np.int64(3), np.bool_(True), np.complex128(1j)])
    assert scalars == [2.5, 3, True, [0.0, 1.0]]
    assert [type(v) for v in scalars[:3]] == [float, int, bool]


def test_dumps_refuses_non_finite_floats():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps({"x": [1.0, float("inf")]})


def test_dumps_sorts_keys_and_repeats_bytes():
    assert dumps({"b": 1, "a": {"d": 2.0, "c": None}}) == '{"a": {"c": null, "d": 2.0}, "b": 1}'
    value = {"z": CoeffSeries([1.0 / 3.0, 2j]), "a": ZeroFreeReport(False, 1, 1e-3, 1 << 14)}
    assert dumps(to_jsonable(value)) == dumps(to_jsonable(value))
