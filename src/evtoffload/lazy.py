"""numpy, bound at import time and run on first use.

Every decision is a fresh process, so import time is paid on each one, and
numpy's import is about half of `import evtoffload.cli`.  The min cut, the
chain window search, the oracle and the energy model are pure Python, so
`solve --policy auto` and `oracle` never need numpy.  Each module that uses
numpy binds `np = lazy_numpy()`: numpy's own code then runs at the first
attribute access of `np`, if there is one.
"""
from __future__ import annotations

import importlib.util
import sys
import types


def lazy_numpy() -> types.ModuleType:
    """numpy itself when it is already imported (running its code a second
    time breaks it), else a module whose code runs on first attribute access."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module
