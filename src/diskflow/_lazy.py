"""numpy for every diskflow module, executed on its first attribute access.

The value regions and their CLI command are closed forms in a few numbers
and never touch an array, so a process that only runs them should not pay
for importing numpy.  When nothing has imported numpy yet, this registers a
lazy ``numpy`` module in sys.modules; the first ``np.<name>`` runs numpy's
import and turns the object into the plain module, so later accesses cost
what they cost after an eager import.  Python before 3.12 does not lock that
first access, which is fine for this single-threaded package.

Every module binds ``np`` from here: on Python 3.11 an ``import numpy``
statement reads the lazy module's ``__spec__`` and so executes numpy.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
