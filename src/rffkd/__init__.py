"""Random Fourier feature embeddings for the Gaussian kernel, with
relative-error guarantees on kernel distances, feature-count planners,
approximate kernel PCA, and a statistical verification battery.

The package exports the public names of the modules below, each declared
once in its module's __all__; streams and cli stay submodule-only."""

from . import features, kernel, kpca, matrixio, planner, experiments, verify
from .features import *  # noqa: F403
from .kernel import *  # noqa: F403
from .kpca import *  # noqa: F403
from .matrixio import *  # noqa: F403
from .planner import *  # noqa: F403
from .experiments import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (features, kernel, kpca, matrixio, planner, experiments, verify)
    for name in module.__all__
]
