"""Call-site capture for graph provenance.

The graph verifier reports findings with the file:line where the user
*wired* the offending link or *declared* the offending proxy — not the
framework internals that eventually notice.  :func:`caller_site` walks the
stack outward until it leaves ``repro/core`` (and ``repro/analysis``),
returning the first user frame.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple, Optional

__all__ = ["SourceSite", "caller_site"]

_INTERNAL_DIRS = (
    os.path.join("repro", "core"),
    os.path.join("repro", "analysis"),
)


class SourceSite(NamedTuple):
    path: str
    line: int

    def __str__(self) -> str:
        return "%s:%d" % (self.path, self.line)


def _is_internal(filename: str) -> bool:
    return any(marker in filename for marker in _INTERNAL_DIRS)


def caller_site(skip: int = 1) -> Optional[SourceSite]:
    """First stack frame outside the framework, as (path, line)."""
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow interpreter stacks
        return None
    while frame is not None:
        filename = frame.f_code.co_filename
        if not _is_internal(filename):
            return SourceSite(filename, frame.f_lineno)
        frame = frame.f_back
    return None
