"""The config reader: each typed read returns its type or refuses the value
with a ConfigError naming the key path."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fejerflow.config import Config, ConfigError

# JSON values, with the non-finite floats JSON parsers also accept
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def _point(x, shape) -> bool:
    return isinstance(x, np.ndarray) and x.shape == shape and np.isfinite(x).all()


# read name -> (the read of key "v", the check of what it returned)
_READS = {
    "number": (lambda n: n.number("v"), _finite),
    "positive": (lambda n: n.positive("v"), lambda x: _finite(x) and x > 0),
    "nonnegative": (lambda n: n.nonnegative("v"), lambda x: _finite(x) and x >= 0),
    "rational": (lambda n: n.rational("v"), lambda x: isinstance(x, Fraction)),
    "integer": (lambda n: n.integer("v"), lambda x: type(x) is int),
    "positive_integer": (lambda n: n.positive_integer("v"), lambda x: type(x) is int and x >= 1),
    "text": (lambda n: n.text("v"), lambda x: isinstance(x, str)),
    "vector_1": (lambda n: n.vector("v", 1), lambda x: _point(x, (1,))),
    "vector_2": (lambda n: n.vector("v", 2), lambda x: _point(x, (2,))),
    "matrix": (lambda n: n.matrix("v", 2), lambda x: _point(x, (2, 2))),
    "numbers": (lambda n: n.numbers("v"), lambda x: all(_finite(v) for v in x)),
    "pairs": (lambda n: n.pairs("v"),
              lambda x: x and all(isinstance(p, Config) and len(p) == 2 for p in x)),
    "specs": (lambda n: n.specs("v", scalar=Config.INTEGER),
              lambda x: x and all(isinstance(s, Config) or type(s) is int for s in x)),
    "spec": (lambda n: n.spec("v", scalar=Config.NUMBER),
             lambda x: isinstance(x, Config) or _finite(x)),
    "choice": (lambda n: n.choice("v", {"a": 1}), lambda x: x == 1),
}


@settings(max_examples=400, deadline=None)
@given(read=st.sampled_from(sorted(_READS)), value=_JSON)
@example(read="vector_2", value=[0.0])
@example(read="matrix", value=[[1.0, 0.0, 0.0]] * 3)
@example(read="number", value=math.inf)
@example(read="specs", value=[])
@example(read="integer", value=10 ** 400)
def test_typed_read_returns_its_type_or_names_the_key(read, value):
    node = Config({"v": value}, "outer")
    do, check = _READS[read]
    try:
        result = do(node)
    except ConfigError as exc:
        assert "'outer.v" in str(exc)
    else:
        assert check(result), result


def test_defaults_nulls_and_missing_keys():
    node = Config({"x": None, "n": "1/1000", "e": 0.1}, "s")
    assert node.number("absent", 2) == 2.0 and node.rational("absent", 0.2) == Fraction(1, 5)
    assert node.spec("absent", {}).number("k", 3) == 3.0
    assert node.spec("x", None) is None and node.number("absent", None) is None
    assert node.rational("n") == Fraction(1, 1000) and node.rational("e") == Fraction(1, 10)
    with pytest.raises(ConfigError, match=r"'s\.x' must be a value, not null"):
        node.number("x", 1.0)
    with pytest.raises(ConfigError, match=r"missing required key 's\.absent'"):
        node.number("absent")
    with pytest.raises(ConfigError, match=r"'s\.n' must be a finite number"):
        node.number("n")


def test_rational_exponent_up_to_the_int_digits():
    # Fraction would build 10^|exponent|: past the digits int() reads from a
    # string, the decimal is refused like an integer of that many digits
    node = Config({"a": "1e-4300", "b": "1e-4301", "c": "1E+1_0000", "d": "1e-999999999"}, "s")
    assert node.rational("a") == Fraction(1, 10 ** 4300)
    for key in "bcd":
        with pytest.raises(ConfigError, match=rf"'s\.{key}' must be .*exponent up to 4300"):
            node.rational(key)
