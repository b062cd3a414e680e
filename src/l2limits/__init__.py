"""Local limits of bounded-degree simplicial complexes.

Tools for rooted simplicial complexes: canonical codes and the local
(ball-comparison) metric, Hodge Laplacian spectra with exact Betti numbers,
uniform rootings and mass-transport checks, moment estimators, and the
generator families used in convergence experiments.

Each module's ``__all__`` is its public API; the package re-exports
exactly those names.

``import l2limits`` registers every submodule and runs each on first use.
The public names are bound on the first read of any of them.  That first
read loads every module under a lock.  On Python 3.10 and 3.11 a submodule
object must not be touched first by two threads at once: the lazy module
runs its code without a lock, so the second thread could see it half-run.
"""
import importlib.util
import sys
import threading

__version__ = "0.1.0"

# the modules whose __all__ the package re-exports, in that order
_PUBLIC = ("complexes", "encoding", "errors", "estimators", "formats",
           "generators", "measures", "spectral")

# each submodule sits in sys.modules and on the package, unrun, until an
# attribute of it is read; a patch set on it before then survives the run.
# exact exports nothing.
for _name in (*_PUBLIC, "exact"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module

_bind_lock = threading.Lock()


def __getattr__(name):
    """Bind every module's ``__all__`` on the package, then read ``name``;
    ``cli`` and ``__main__``, asked for before an import loads them, bind none."""
    if name not in ("cli", "__main__"):
        with _bind_lock:
            if "__all__" not in globals():
                names = []
                for module in map(globals().get, _PUBLIC):
                    for key in module.__all__:
                        globals()[key] = getattr(module, key)
                    names += module.__all__
                # bound last, so a thread that finds it finds every name
                globals()["__all__"] = [*names, "__version__"]
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
