"""SSDlet modules: registration, image files, the module repository.

A module is the unit of deployment (the paper's ``.slet`` file): SSDlet
classes are compiled and linked with libslet into a module binary, written to
the SSD's filesystem, and loaded at run time.  Here the "binary" is a small
header naming the module; the class registry travels through a repository
keyed by module name (standing in for the symbol tables the real loader
relocates).
"""

from __future__ import annotations

import inspect
import warnings
from typing import Dict, Optional, Type

from repro.core.errors import GraphWarning, ModuleError
from repro.fs.filesystem import FileSystem, Inode
from repro.sim.units import KIB

__all__ = [
    "SSDletModule",
    "register_ssdlet",
    "module_repository",
    "write_module_image",
    "read_module_header",
]

_MAGIC = b"SLET1\n"

#: All "compiled" modules known to this process, keyed by module name.
_REPOSITORY: Dict[str, "SSDletModule"] = {}


def module_repository() -> Dict[str, "SSDletModule"]:
    return _REPOSITORY


class SSDletModule:
    """A named collection of SSDlet classes plus its binary-size estimate."""

    BASE_BINARY_BYTES = 48 * KIB  # libslet stub + module tables
    PER_CLASS_BYTES = 24 * KIB

    def __init__(self, name: str, binary_size: Optional[int] = None):
        if not name or "\n" in name:
            raise ModuleError("invalid module name: %r" % name)
        self.name = name
        self.classes: Dict[str, Type] = {}
        self._explicit_size = binary_size
        _REPOSITORY[name] = self

    @property
    def binary_size(self) -> int:
        if self._explicit_size is not None:
            return self._explicit_size
        return self.BASE_BINARY_BYTES + self.PER_CLASS_BYTES * len(self.classes)

    @property
    def image_path(self) -> str:
        """Where the module's image lives on the SSD filesystem."""
        return "/var/isc/slets/%s.slet" % self.name

    def register(self, class_id: str, cls: Type) -> Type:
        """Register an SSDlet class under ``class_id`` (RegisterSSDLet).

        Registration is the reproduction's "compile" step, so declaration
        errors the paper's C++ templates would reject at compile time are
        rejected here — before any image is written or loaded.
        """
        if class_id in self.classes:
            raise ModuleError(
                "module %s already registers %r" % (self.name, class_id)
            )
        run = getattr(cls, "run", None)
        if run is None:
            raise ModuleError("%s does not define run()" % cls.__name__)
        _validate_declaration(cls)
        self.classes[class_id] = cls
        return cls

    def lookup(self, class_id: str) -> Type:
        try:
            return self.classes[class_id]
        except KeyError:
            raise ModuleError(
                "module %s has no SSDlet registered as %r" % (self.name, class_id)
            ) from None


def _validate_declaration(cls: Type) -> None:
    """Static checks of a class's port/argument declarations.

    Catches the classic Python slip the template types forbid by
    construction: ``OUT_TYPES = str`` instead of ``OUT_TYPES = (str,)``
    (iterating the bare string would declare three ports ``s``/``t``/``r``).
    """
    for attr in ("IN_TYPES", "OUT_TYPES"):
        specs = getattr(cls, attr, ())
        if isinstance(specs, (str, bytes)) or not isinstance(specs, (tuple, list)):
            raise ModuleError(
                "%s.%s must be a tuple of type specs, got %r "
                "(did you write `= str` instead of `= (str,)`?)"
                % (cls.__name__, attr, specs)
            )
    arg_types = getattr(cls, "ARG_TYPES", None)
    if arg_types is not None and (
            isinstance(arg_types, (str, bytes))
            or not isinstance(arg_types, (tuple, list))):
        raise ModuleError(
            "%s.ARG_TYPES must be None or a tuple of type specs, got %r"
            % (cls.__name__, arg_types)
        )
    run = getattr(cls, "run", None)
    if run is not None and not inspect.isgeneratorfunction(run):
        # Delegating run() bodies exist (return a helper's generator), so
        # this is advisory: a truly non-generator run() fails in Process.
        warnings.warn(
            "%s.run() is not a generator function; SSDlet bodies execute "
            "as fibers and must yield" % cls.__name__,
            GraphWarning, stacklevel=3,
        )


def register_ssdlet(module: SSDletModule, class_id: str):
    """Decorator form of the paper's ``RegisterSSDLet(id, Class)``."""

    def decorate(cls: Type) -> Type:
        return module.register(class_id, cls)

    return decorate


def write_module_image(fs: FileSystem, path: str, module: SSDletModule) -> Inode:
    """Write the module's image file to the SSD filesystem (deploy step)."""
    header = _MAGIC + module.name.encode("utf-8") + b"\n"
    payload = header + b"\x00" * max(0, module.binary_size - len(header))
    return fs.install(path, payload)


def read_module_header(data: bytes) -> str:
    """Parse a module image header; returns the module name."""
    if not data.startswith(_MAGIC):
        raise ModuleError("not an SSDlet module image")
    end = data.find(b"\n", len(_MAGIC))
    if end < 0:
        raise ModuleError("corrupt module header")
    name = data[len(_MAGIC):end].decode("utf-8", errors="replace")
    if name not in _REPOSITORY:
        raise ModuleError("module %r is not in the repository (not compiled?)" % name)
    return name
