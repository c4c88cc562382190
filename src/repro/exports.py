"""Lazy package exports: a package's public names resolve on first use.

A package ``__init__`` names its exports once, grouped by the submodule
that defines them, and hands that table to :func:`lazy_exports`::

    __all__ = lazy_exports(__name__, {
        "stage": ("PipelineStage",),
        "graph_sim": ("GraphPipelineResult", "GraphPipelineSimulation"),
    })

Importing the package then imports none of those submodules; the first
``package.Name`` (or ``from package import Name``) imports the defining
submodule and caches the value on the package, so every later access is
a plain attribute read.  A process loads only the modules whose names it
uses.
"""

from __future__ import annotations

import importlib
import sys
import types


class _LazyPackage(types.ModuleType):
    """A package module whose exports import their submodule on first use."""

    _exports: dict[str, str]

    def __getattr__(self, name: str):
        # The module-level ``__getattr__`` of PEP 562, held on the class
        # with the binding rule below.
        submodule = self._exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}")
        value = getattr(
            importlib.import_module(f"{self.__name__}.{submodule}"), name)
        types.ModuleType.__setattr__(self, name, value)
        return value

    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on its package.  An export that
        # shares its submodule's name (``repro.circuit.evaluate``, the
        # function, from ``repro.circuit.evaluate``, the module) keeps
        # naming the export, as it did when packages imported eagerly.
        if (isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
                and self._exports.get(name) == name):
            return
        types.ModuleType.__setattr__(self, name, value)

    def __dir__(self) -> list[str]:
        return sorted(set(super().__dir__()) | set(self._exports))


def lazy_exports(package: str,
                 table: dict[str, tuple[str, ...]]) -> list[str]:
    """Resolve ``package``'s exports on first use; return its ``__all__``.

    ``table`` maps each defining submodule (relative to ``package``) to
    the names it exports, each name listed once.
    """
    module = sys.modules[package]
    exports = {name: submodule for submodule, names in table.items()
               for name in names}
    module._exports = exports
    module.__class__ = _LazyPackage
    return list(exports)
