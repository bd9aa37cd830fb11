"""Lazy exports for a package ``__init__`` (PEP 562).

A package that re-exports names from its submodules would otherwise
import every submodule when any one name is asked for; with
:func:`lazy_exports` a name's submodule loads on first access.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose
    ``exports`` map each submodule name to the public names it defines."""
    where = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return sorted(where), __getattr__, __dir__
