"""Named, hierarchical simulation objects.

Every structural element of a model — modules, ports, channels, clocks —
is a :class:`SimObject`: it has a local name, a parent (or is a top-level
object), and a hierarchical *full name* such as ``top.dma.m_port`` that
uniquely identifies it within its :class:`~repro.kernel.context.SimContext`.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Optional

from repro.kernel.errors import ElaborationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.context import SimContext

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_\[\]]*$")


class SimObject:
    """Base class for all named simulation objects.

    Parameters
    ----------
    name:
        Local (leaf) name.  Must look like an identifier; ``[i]`` suffixes
        are allowed so arrays of objects read naturally (``port[3]``).
    parent:
        The enclosing :class:`SimObject` (usually a module), or ``None``
        for a top-level object — in which case ``ctx`` is required.
    ctx:
        The simulation context; inferred from ``parent`` when omitted.
    """

    def __init__(
        self,
        name: str,
        parent: Optional["SimObject"] = None,
        ctx: Optional["SimContext"] = None,
    ):
        if not _NAME_RE.match(name):
            raise ElaborationError(f"invalid simulation object name: {name!r}")
        if parent is not None:
            resolved_ctx = parent.ctx
            if ctx is not None and ctx is not resolved_ctx:
                raise ElaborationError(
                    f"object {name!r}: explicit ctx differs from parent's ctx"
                )
        else:
            if ctx is None:
                raise ElaborationError(
                    f"top-level object {name!r} needs an explicit ctx"
                )
            resolved_ctx = ctx

        self.name = name
        self.parent = parent
        self.ctx = resolved_ctx
        self.children: List["SimObject"] = []
        if parent is not None:
            self.full_name = f"{parent.full_name}.{name}"
        else:
            self.full_name = name
        self.ctx.register_object(self, parent)
        if parent is not None:
            parent.children.append(self)

    # -- hierarchy helpers --------------------------------------------------

    def iter_descendants(self):
        """Yield all descendants, depth-first."""
        for child in self.children:
            yield child
            yield from child.iter_descendants()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.full_name!r})"
