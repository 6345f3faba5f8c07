"""Typed data model: Packet, serialization registry, port type checking.

Section III-C: "Biscuit API is strongly typed and implicit type conversion is
not allowed" — users may only connect ports of identical type, and every
datum crossing a host-device or inter-application boundary must be
(de)serializable to the Packet type.

Type specs are Python types or ``typing`` generics; two ports match iff their
specs compare equal.  Serialization uses a registry so user types opt in
explicitly (mirroring the paper's explicit serialize/deserialize functions);
common value types are pre-registered.
"""

from __future__ import annotations

import pickle
import typing
from typing import Any, Callable, Dict, Tuple, Type

from repro.core.errors import NotSerializableError, TypeMismatchError

__all__ = [
    "Packet",
    "serialize",
    "deserialize",
    "register_serializer",
    "is_serializable",
    "check_value",
    "spec_name",
]


class Packet:
    """The wire format of host-device and inter-application ports.

    A Packet is an opaque byte payload.  Its length is what transfer-time
    models see; its bytes are what deserialization sees.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: bytes = b""):
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeMismatchError("Packet payload must be bytes")
        self.payload = bytes(payload)

    def __len__(self) -> int:
        return len(self.payload)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Packet) and self.payload == other.payload

    def __hash__(self) -> int:
        return hash(self.payload)

    def __repr__(self) -> str:
        return "Packet(%d bytes)" % len(self.payload)


_Serializer = Callable[[Any], Packet]
_Deserializer = Callable[[Packet], Any]
_REGISTRY: Dict[Any, Tuple[_Serializer, _Deserializer]] = {}


def register_serializer(spec: Any, to_packet: _Serializer, from_packet: _Deserializer) -> None:
    """Register explicit (de)serialization for a type spec."""
    _REGISTRY[spec] = (to_packet, from_packet)


def _pickle_pair(spec: Any) -> Tuple[_Serializer, _Deserializer]:
    def to_packet(value: Any) -> Packet:
        return Packet(pickle.dumps(value, protocol=4))

    def from_packet(packet: Packet) -> Any:
        return pickle.loads(packet.payload)

    return to_packet, from_packet


def _lookup(spec: Any) -> Tuple[_Serializer, _Deserializer]:
    if spec is Packet:
        return (lambda value: value, lambda packet: packet)
    if spec in _REGISTRY:
        return _REGISTRY[spec]
    if _builtin_serializable(spec):
        return _pickle_pair(spec)
    raise NotSerializableError(
        "type %s has no registered serializer; register one with "
        "register_serializer()" % spec_name(spec)
    )


_BUILTIN_VALUE_TYPES = (bool, int, float, str, bytes)


def _builtin_serializable(spec: Any) -> bool:
    if spec in _BUILTIN_VALUE_TYPES:
        return True
    origin = typing.get_origin(spec)
    if origin in (tuple, list, dict, frozenset):
        return all(
            arg is Ellipsis or _builtin_serializable(arg)
            for arg in typing.get_args(spec)
        )
    return False


def is_serializable(spec: Any) -> bool:
    """Can values of this type spec cross a Packet-only port?"""
    if spec is Packet or spec in _REGISTRY:
        return True
    return _builtin_serializable(spec)


def serialize(value: Any, spec: Any) -> Packet:
    """Explicitly serialize ``value`` (declared as ``spec``) to a Packet."""
    check_value(value, spec)
    to_packet, _ = _lookup(spec)
    return to_packet(value)


def deserialize(packet: Packet, spec: Any) -> Any:
    """Explicitly deserialize a Packet back into a value of ``spec``."""
    if not isinstance(packet, Packet):
        raise TypeMismatchError("deserialize() requires a Packet")
    _, from_packet = _lookup(spec)
    value = from_packet(packet)
    check_value(value, spec)
    return value


# --------------------------------------------------------------- type checks
def spec_name(spec: Any) -> str:
    name = getattr(spec, "__name__", None)
    if isinstance(name, str) and name:
        return name
    return str(spec)


def check_value(value: Any, spec: Any) -> None:
    """Runtime type check of a value against a port/argument type spec.

    Checks the outer structure of ``typing`` generics and element types of
    tuples (fixed arity); containers' elements are spot-checked rather than
    exhaustively walked for large payloads.
    """
    if spec is Any:
        return
    origin = typing.get_origin(spec)
    if origin is None:
        if isinstance(spec, type):
            if spec is float and isinstance(value, int) and not isinstance(value, bool):
                raise TypeMismatchError("int where float expected (no implicit conversion)")
            if not isinstance(value, spec):
                raise TypeMismatchError(
                    "expected %s, got %s" % (spec_name(spec), type(value).__name__)
                )
            if spec in (int, float) and isinstance(value, bool):
                raise TypeMismatchError("bool where %s expected" % spec_name(spec))
        return
    args = typing.get_args(spec)
    if origin is tuple:
        if not isinstance(value, tuple):
            raise TypeMismatchError("expected tuple, got %s" % type(value).__name__)
        if args and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise TypeMismatchError(
                    "tuple arity %d != declared %d" % (len(value), len(args))
                )
            for item, item_spec in zip(value, args):
                check_value(item, item_spec)
        return
    if origin is list:
        if not isinstance(value, list):
            raise TypeMismatchError("expected list, got %s" % type(value).__name__)
        if args and value:
            check_value(value[0], args[0])
        return
    if origin is dict:
        if not isinstance(value, dict):
            raise TypeMismatchError("expected dict, got %s" % type(value).__name__)
        if args and value:
            key, item = next(iter(value.items()))
            check_value(key, args[0])
            check_value(item, args[1])
        return
    if origin is frozenset:
        if not isinstance(value, frozenset):
            raise TypeMismatchError("expected frozenset, got %s" % type(value).__name__)
        return
    if not isinstance(value, origin):
        raise TypeMismatchError(
            "expected %s, got %s" % (spec_name(spec), type(value).__name__)
        )
