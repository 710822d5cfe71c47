"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
declares where each name lives and hands the table to
:func:`lazy_exports`::

    _EXPORTS = {".buffer": ("PlaybackBuffer",),
                ".player": ("DashPlayer", "PlayerAddon")}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

Importing the package then loads none of its submodules; the first
``package.PlaybackBuffer`` imports ``.buffer``, stores the object in the
package's globals (so later lookups never reach ``__getattr__``) and
returns it.  A run therefore loads only the modules it uses: a fleet
worker that never renders a report never imports the report stack.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a module path relative to ``package`` (``".buffer"``,
    or ``".experiments.configs"`` from the top-level package) to the
    names it provides.
    """
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
