"""Random Fourier feature embeddings for the Gaussian kernel, with
relative-error guarantees on kernel distances, feature-count planners,
approximate kernel PCA, and a statistical verification battery.

The package exports the documented API, the union of the __all__ lists of
the modules below, each name declared once, in its module.  A module is
imported when one of its names is first looked up.  Helpers outside that
API are imported from their own modules; streams and cli stay
submodule-only."""

import importlib

__version__ = "0.1.0"

_MODULES = ("features", "kernel", "matrixio", "planner", "kpca", "experiments", "verify")


def __getattr__(name):
    modules = (importlib.import_module(f"{__name__}.{m}") for m in _MODULES)
    if name == "__all__":
        return [n for module in modules for n in module.__all__]
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if not name.startswith("__"):
        for module in modules:
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __getattr__("__all__")
