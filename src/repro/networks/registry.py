"""Network registry: look up the paper's benchmark CNNs by name.

Network modules register their factories through the :func:`register_network`
decorator (see :mod:`repro.networks.alexnet` for the idiom); a second
registration under ``paper_subset=True`` provides the reduced layer population
used in the per-layer evaluation figures.  :func:`paper_benchmark_suite`
reproduces the layer population of Fig. 11/13/14 (unique conv layers of all
four CNNs, in paper order).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.layer import LayerConfig
from .base import ConvNetwork

NetworkFactory = Callable[[int], ConvNetwork]

_REGISTRY: Dict[str, NetworkFactory] = {}
_PAPER_SUBSETS: Dict[str, NetworkFactory] = {}
#: bumped by every registration change; caches keyed by network name include
#: it so they never serve a network that has since been replaced.
_generation = 0

#: the order networks appear in the paper's figures.
PAPER_NETWORK_ORDER: Tuple[str, ...] = ("alexnet", "vgg16", "googlenet", "resnet152")


def register_network(name: str, *, paper_subset: bool = False
                     ) -> Callable[[NetworkFactory], NetworkFactory]:
    """Register a network factory (``batch -> ConvNetwork``) under ``name``.

    With ``paper_subset=True`` the factory is registered as the network's
    paper-subset variant (the reduced layer population shown in the paper's
    per-layer figures); networks without a dedicated variant fall back to the
    full factory.  Duplicate registrations raise ``ValueError``.
    """
    key = name.strip().lower()

    def decorator(factory: NetworkFactory) -> NetworkFactory:
        global _generation
        registry = _PAPER_SUBSETS if paper_subset else _REGISTRY
        if key in registry:
            kind = "paper-subset variant" if paper_subset else "network"
            raise ValueError(f"{kind} {name!r} is already registered")
        registry[key] = factory
        _generation += 1
        return factory

    return decorator


def unregister_network(name: str) -> None:
    """Remove a network and its paper-subset variant (tests/plugins)."""
    global _generation
    key = name.strip().lower()
    _REGISTRY.pop(key, None)
    _PAPER_SUBSETS.pop(key, None)
    _generation += 1


def registry_generation() -> int:
    """How many times the registry has changed (a cache-key component)."""
    return _generation


def available_networks() -> List[str]:
    """Names accepted by :func:`get_network`."""
    return sorted(_REGISTRY)


def paper_subset_networks() -> List[str]:
    """Networks with a dedicated paper-subset variant."""
    return sorted(_PAPER_SUBSETS)


def get_network(name: str, batch: int = 256, paper_subset: bool = False) -> ConvNetwork:
    """Build a benchmark network by (case-insensitive) name."""
    key = name.strip().lower()
    registry = _REGISTRY
    if paper_subset and key in _PAPER_SUBSETS:
        registry = _PAPER_SUBSETS
    try:
        factory = registry[key]
    except KeyError:
        raise KeyError(
            f"unknown network {name!r}; available: {available_networks()}"
        ) from None
    return factory(batch)


def paper_benchmark_suite(batch: int = 256, unique: bool = True,
                          networks: Optional[Sequence[str]] = None
                          ) -> List[Tuple[str, LayerConfig]]:
    """(network name, layer) pairs for the paper's evaluation population.

    With ``unique=True`` (the default) each network contributes only its
    unique-configuration layers, matching Section VI ("we show the results on
    the unique subset").  ``networks`` restricts the population to the named
    CNNs while preserving paper order.
    """
    if networks is None:
        names: Sequence[str] = PAPER_NETWORK_ORDER
    else:
        wanted = {name.strip().lower() for name in networks}
        unknown = wanted - set(PAPER_NETWORK_ORDER) - set(_REGISTRY)
        if unknown:
            raise KeyError(f"unknown network(s) {sorted(unknown)}; "
                           f"available: {available_networks()}")
        names = ([name for name in PAPER_NETWORK_ORDER if name in wanted]
                 + sorted(wanted - set(PAPER_NETWORK_ORDER)))
    suite: List[Tuple[str, LayerConfig]] = []
    for name in names:
        network = get_network(name, batch=batch, paper_subset=True)
        layers = network.unique_layers() if unique else network.gemm_layers()
        suite.extend((network.name, layer) for layer in layers)
    return suite


# Importing the network modules applies their @register_network decorators.
# The imports sit at the bottom so the decorator exists when they run.
from . import alexnet as _alexnet    # noqa: E402,F401
from . import googlenet as _googlenet  # noqa: E402,F401
from . import mlp as _mlp            # noqa: E402,F401
from . import resnet as _resnet      # noqa: E402,F401
from . import transformer as _transformer  # noqa: E402,F401
from . import vgg as _vgg            # noqa: E402,F401
