"""Generic plugin registries for swappable simulation components.

A :class:`Registry` maps short names to component factories (disk
schedulers, drive caches, application workloads).  Modules that *own* a
component family instantiate one registry and register their built-ins;
external code can register alternatives under new names and then select
them from a :class:`~repro.config.Scenario` by name — no construction
sites need editing.

The module deliberately imports nothing from the rest of ``repro`` so
that any layer (disk, kernel, apps, config) can depend on it without
cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Tuple


class UnknownComponentError(KeyError):
    """A name was looked up that no plugin registered.

    Carries the registry ``kind``, the offending ``name``, and the valid
    ``choices`` so configuration errors can point at the exact config
    path with the full menu.
    """

    def __init__(self, kind: str, name: str, choices: Tuple[str, ...]):
        self.kind = kind
        self.name = name
        self.choices = choices
        super().__init__(
            f"unknown {kind} {name!r}; choose from {list(choices)}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


class Registry:
    """Name -> factory mapping with precise lookup errors.

    ``register`` works both as a decorator and as a plain call::

        SCHEDULERS = Registry("disk scheduler")

        @SCHEDULERS.register("fifo")
        class FIFOScheduler: ...

        SCHEDULERS.register("noop", NoopScheduler)

    Re-registering a taken name raises unless ``replace=True`` — silent
    shadowing of a built-in is almost always a bug.

    A component that keeps simulation state (a drive cache, say) takes
    part in checkpoints through ``snapshot_state()`` /
    ``restore_state(state)``.  ``snapshot_state()`` must return fresh
    containers and arrays, never live ones: the capture does not copy
    them (see :func:`repro.checkpoint.capture_state`).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    # -- registration ------------------------------------------------------
    def register(self, name: str, obj: Optional[Any] = None, *,
                 replace: bool = False):
        if obj is None:
            def decorator(target):
                self.register(name, target, replace=replace)
                return target
            return decorator
        if not replace and name in self._entries:
            raise ValueError(
                f"{self.kind} {name!r} is already registered "
                f"({self._entries[name]!r}); pass replace=True to override")
        self._entries[name] = obj
        return obj

    # -- lookup ------------------------------------------------------------
    def get(self, name: str) -> Any:
        """The registered object, or :class:`UnknownComponentError`."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownComponentError(self.kind, name,
                                        self.names()) from None

    def create(self, name: str, /, *args, **kwargs) -> Any:
        """Call the registered factory with the given arguments."""
        factory: Callable = self.get(name)
        return factory(*args, **kwargs)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def items(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple(sorted(self._entries.items()))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {list(self.names())})"
