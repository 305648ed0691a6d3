"""Ports: connection points on modules.

A :class:`Port` requires an interface from *outside* the module, like
``sc_port``.  It binds to a channel object implementing the required
interface, or to another port (hierarchical binding, child port →
parent port).

Binding chains are resolved at elaboration by
:meth:`Port.complete_binding`; unbound required ports raise
:class:`~repro.kernel.errors.BindingError` so wiring mistakes surface
before the first event fires.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.kernel.errors import BindingError
from repro.kernel.object import SimObject


class Port(SimObject):
    """A connection point requiring an interface from outside the module.

    Parameters
    ----------
    iface_type:
        Optional interface class; the resolved channel must be an instance
        of it.  ``None`` disables the check (duck typing).
    required:
        If False, the port may legally remain unbound (``sc_port`` with
        ``SC_ZERO_OR_MORE_BOUND``).
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        iface_type: Optional[Type] = None,
        required: bool = True,
    ):
        super().__init__(name, parent, ctx)
        self.iface_type = iface_type
        self.required = required
        self._bound_to = None
        self._channel = None

    # -- binding -------------------------------------------------------------

    def bind(self, target) -> "Port":
        """Bind to a channel or another port.

        Returns ``self`` so bindings chain fluently.
        """
        if self._bound_to is not None:
            raise BindingError(
                f"port {self.full_name} is already bound to "
                f"{self._describe(self._bound_to)}"
            )
        self._bound_to = target
        return self

    @staticmethod
    def _describe(target) -> str:
        return getattr(target, "full_name", repr(target))

    def complete_binding(self) -> None:
        """Resolve the binding chain down to a channel (elaboration)."""
        if self._channel is not None:
            return
        target = self._bound_to
        seen = {id(self)}
        while target is not None:
            if isinstance(target, Port):
                if id(target) in seen:
                    raise BindingError(
                        f"port binding cycle involving {self.full_name}"
                    )
                seen.add(id(target))
                target = target._bound_to
            else:
                break
        if target is None:
            if self.required:
                raise BindingError(f"port {self.full_name} is unbound")
            return
        if self.iface_type is not None and not isinstance(
            target, self.iface_type
        ):
            raise BindingError(
                f"port {self.full_name} requires interface "
                f"{self.iface_type.__name__}, but is bound to "
                f"{type(target).__name__}"
            )
        target_ctx = getattr(target, "ctx", None)
        if target_ctx is not None and target_ctx is not self.ctx:
            # Cross-context wiring silently deadlocks (events live in
            # the other scheduler); fail structurally instead.
            raise BindingError(
                f"port {self.full_name} bound to a channel from a "
                f"different simulation context "
                f"({getattr(target, 'full_name', target)!r})"
            )
        self._channel = target

    @property
    def bound(self) -> bool:
        """True once the binding chain resolved to a channel."""
        return self._channel is not None

    @property
    def channel(self):
        """The resolved channel (after elaboration)."""
        if self._channel is None:
            # Resolve eagerly so pre-elaboration access works when the
            # chain is already complete (common in unit tests).
            self.complete_binding()
        if self._channel is None:
            raise BindingError(f"port {self.full_name} is unbound")
        return self._channel

    # -- sensitivity support --------------------------------------------------

    def default_event(self):
        """Forward to the channel so ports can sit in sensitivity lists."""
        channel = self.channel
        getter = getattr(channel, "default_event", None)
        if getter is None:
            raise BindingError(
                f"channel bound to {self.full_name} has no default event"
            )
        return getter()
