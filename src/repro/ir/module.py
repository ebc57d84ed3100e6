"""A module: the unit of compilation (one .cl translation unit)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.ir.function import Function
from repro.ir.types import Type


@dataclass(frozen=True)
class Channel:
    """A typed inter-kernel FIFO declared with ``pipe`` (or the Intel
    ``channel`` alias) at translation-unit scope.

    Channels live in the module's channel table; :class:`PipeRead` /
    :class:`PipeWrite` instructions reference them by object.  ``depth``
    is the FIFO capacity in elements (``__attribute__((depth(N)))``,
    default 1).  The ``__str__`` form is canonical and address-free — it
    is what enters IR fingerprints and cache keys.
    """

    name: str
    elem_type: Type
    depth: int = 1

    def __str__(self) -> str:
        return f"pipe<{self.elem_type},{self.depth}>@{self.name}"


class Module:
    """A collection of kernel functions produced from one OpenCL source."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self._functions: Dict[str, Function] = {}
        self._channels: Dict[str, Channel] = {}

    def add(self, fn: Function) -> Function:
        if fn.name in self._functions:
            raise ValueError(f"duplicate function {fn.name!r}")
        self._functions[fn.name] = fn
        return fn

    # -- channel table ---------------------------------------------------

    def add_channel(self, channel: Channel) -> Channel:
        if channel.name in self._channels:
            raise ValueError(f"duplicate channel {channel.name!r}")
        self._channels[channel.name] = channel
        return channel

    def get_channel(self, name: str) -> Channel:
        return self._channels[name]

    @property
    def channels(self) -> List[Channel]:
        return list(self._channels.values())

    def get(self, name: str) -> Function:
        return self._functions[name]

    def get_optional(self, name: str) -> Optional[Function]:
        return self._functions.get(name)

    @property
    def functions(self) -> List[Function]:
        return list(self._functions.values())

    @property
    def kernels(self) -> List[Function]:
        return [f for f in self._functions.values() if f.is_kernel]

    def __iter__(self) -> Iterator[Function]:
        return iter(self._functions.values())

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __repr__(self) -> str:
        return f"<Module {self.name}: {list(self._functions)}>"
