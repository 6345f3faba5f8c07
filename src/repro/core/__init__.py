"""The Biscuit framework — the paper's primary contribution.

Host side (libsisc analogue): :class:`~repro.core.ssd_api.SSD`,
:class:`~repro.core.application.Application`,
:class:`~repro.core.application.SSDLetProxy`.

Device side (libslet analogue): :class:`~repro.core.ssdlet.SSDLet`,
:class:`~repro.core.module.SSDletModule`, the
:class:`~repro.core.runtime.BiscuitRuntime` with cooperative fibers,
dynamic module loading and system/user memory allocators.

Both sides share the typed port model of Section III-C — one port pair
(:mod:`repro.core.ports`) whose cost follows the connection's kind:
inter-SSDlet (general types, SPSC/SPMC/MPSC), host-to-device and
inter-application (Packet only, SPSC only), all bounded queues.

The heavyweight names are loaded lazily (PEP 562) so that low-level modules
(``repro.ssd.nand``, ``repro.ssd.ftl``) can import the leaf
:mod:`repro.core.errors` without dragging the whole runtime — and its
imports of the fs/ssd layers — into a circular import.
"""

import importlib

from repro.core.errors import (
    BiscuitError,
    DeviceError,
    EccError,
    MemoryQuotaError,
    ModuleError,
    NotSerializableError,
    OutOfSpaceError,
    PortClosed,
    PortConnectionError,
    SafetyViolation,
    TypeMismatchError,
    UncorrectableReadError,
)

__all__ = [
    "SSD",
    "DeviceFile",
    "Application",
    "SSDLetProxy",
    "SSDLet",
    "HostTask",
    "HostTaskProxy",
    "SSDletModule",
    "register_ssdlet",
    "write_module_image",
    "BiscuitRuntime",
    "Packet",
    "PortKind",
    "serialize",
    "deserialize",
    "is_serializable",
    "BiscuitError",
    "TypeMismatchError",
    "NotSerializableError",
    "PortConnectionError",
    "PortClosed",
    "ModuleError",
    "MemoryQuotaError",
    "SafetyViolation",
    "DeviceError",
    "EccError",
    "UncorrectableReadError",
    "OutOfSpaceError",
]

_LAZY = {
    "Application": "repro.core.application",
    "SSDLetProxy": "repro.core.application",
    "HostTask": "repro.core.hostlet",
    "HostTaskProxy": "repro.core.hostlet",
    "SSDletModule": "repro.core.module",
    "register_ssdlet": "repro.core.module",
    "write_module_image": "repro.core.module",
    "PortKind": "repro.core.ports",
    "BiscuitRuntime": "repro.core.runtime",
    "SSD": "repro.core.ssd_api",
    "DeviceFile": "repro.core.ssd_api",
    "SSDLet": "repro.core.ssdlet",
    "Packet": "repro.core.types",
    "deserialize": "repro.core.types",
    "is_serializable": "repro.core.types",
    "serialize": "repro.core.types",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(__all__) | set(globals()))
