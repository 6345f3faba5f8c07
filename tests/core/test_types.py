"""Typed data model: Packet, serialization, strict type checking."""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NotSerializableError, TypeMismatchError
from repro.core.types import (
    Packet,
    check_value,
    deserialize,
    is_serializable,
    register_serializer,
    serialize,
)


# -------------------------------------------------------------------- Packet
def test_packet_wraps_bytes():
    packet = Packet(b"abc")
    assert len(packet) == 3
    assert packet == Packet(b"abc")
    assert packet != Packet(b"abd")
    assert hash(packet) == hash(Packet(b"abc"))


def test_packet_rejects_non_bytes():
    with pytest.raises(TypeMismatchError):
        Packet("text")


def test_packet_serializes_to_itself():
    packet = Packet(b"payload")
    assert serialize(packet, Packet) is packet
    assert deserialize(packet, Packet) is packet


# ------------------------------------------------------------- serialization
@pytest.mark.parametrize("value,spec", [
    (42, int), (3.5, float), ("héllo", str), (b"\x00\xff", bytes), (True, bool),
    ((1, "a"), Tuple[int, str]),
    ([1, 2, 3], List[int]),
    ({"k": 2}, Dict[str, int]),
])
def test_roundtrip_builtin_types(value, spec):
    assert is_serializable(spec)
    assert deserialize(serialize(value, spec), spec) == value


def test_unregistered_class_not_serializable():
    class Custom:
        pass

    assert not is_serializable(Custom)
    with pytest.raises(NotSerializableError):
        serialize(Custom(), Custom)


def test_register_custom_serializer():
    class Point:
        def __init__(self, x, y):
            self.x, self.y = x, y

        def __eq__(self, other):
            return (self.x, self.y) == (other.x, other.y)

    register_serializer(
        Point,
        lambda p: Packet(("%d,%d" % (p.x, p.y)).encode()),
        lambda pkt: Point(*map(int, pkt.payload.decode().split(","))),
    )
    assert is_serializable(Point)
    assert deserialize(serialize(Point(3, 4), Point), Point) == Point(3, 4)


# ------------------------------------------------------------- type checking
def test_exact_type_required():
    check_value(5, int)
    with pytest.raises(TypeMismatchError):
        check_value("5", int)


def test_no_implicit_int_to_float():
    """The paper: implicit conversion is not allowed."""
    with pytest.raises(TypeMismatchError):
        check_value(5, float)


def test_bool_is_not_int():
    with pytest.raises(TypeMismatchError):
        check_value(True, int)


def test_tuple_arity_and_elements():
    check_value(("a", 1), Tuple[str, int])
    with pytest.raises(TypeMismatchError):
        check_value(("a",), Tuple[str, int])
    with pytest.raises(TypeMismatchError):
        check_value((1, "a"), Tuple[str, int])


def test_list_and_dict_specs():
    check_value([1, 2], List[int])
    check_value({}, Dict[str, int])
    with pytest.raises(TypeMismatchError):
        check_value("not a list", List[int])


@settings(max_examples=50, deadline=None)
@given(st.recursive(
    st.one_of(st.integers(), st.text(), st.binary(max_size=64),
              st.floats(allow_nan=False)),
    lambda children: st.lists(children, max_size=4) | st.tuples(children),
    max_leaves=10,
))
def test_property_pickle_roundtrip_values(value):
    """Any nested builtin value survives the Packet wire format."""
    spec = type(value)
    if not is_serializable(spec):
        return
    assert deserialize(serialize(value, spec), spec) == value
