"""Fig. 4: L1 and L2 cache miss rates of GoogLeNet conv layers.

The paper motivates traffic modeling by showing the wide spread of cache miss
rates across GoogLeNet conv layers (L1: 13%-50%, L2: 8%-90%) measured on a
TITAN Xp; the figure's inset highlights the inception_3a module.  Here the
measurement comes from the simulator substrate, and the same spread appears.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from ..networks.registry import get_network
from ..sim.engine import SimulatorConfig
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig04"
TITLE = "Fig. 4: L1 and L2 miss rates of GoogLeNet conv layers (inception_3a)"

#: layers simulated by default: the inception_3a module the figure highlights
#: plus the stem convolutions (kept small so the experiment stays fast).
DEFAULT_LAYER_NAMES = (
    "conv2_3x3r", "conv2_3x3",
    "3a_1x1", "3a_3x3red", "3a_3x3", "3a_5x5red", "3a_5x5",
)


@register_experiment(EXPERIMENT_ID, title=TITLE)
def run(gpu: GpuSpec = TITAN_XP, batch: int = 16,
        layer_names: Optional[Sequence[str]] = None,
        max_ctas: Optional[int] = 90,
        network: str = "googlenet",
        session=None) -> Report:
    """Measure L1/L2 miss rates of the selected layers (GoogLeNet by default).

    Simulations route through the session (memo + optional disk cache); for a
    non-default ``network`` the default layer selection falls back to the
    first unique conv layers.
    """
    from ..api.session import current_session
    session = session if session is not None else current_session()
    net = get_network(network, batch=batch)
    if layer_names is None:
        if network.strip().lower() == "googlenet":
            layer_names = DEFAULT_LAYER_NAMES
        else:
            layer_names = tuple(
                layer.name
                for layer in net.unique_layers()[:len(DEFAULT_LAYER_NAMES)])
    sim_config = SimulatorConfig(max_ctas=max_ctas)

    rows = []
    l1_rates = []
    l2_rates = []
    for name in layer_names:
        layer = net.layer(name)
        result = session.simulate(gpu, layer, sim_config)
        l1_rate = result.traffic.l1_miss_rate
        l2_rate = result.traffic.l2_miss_rate
        l1_rates.append(l1_rate)
        l2_rates.append(l2_rate)
        rows.append({
            "layer": name,
            "L1 miss rate": l1_rate,
            "L2 miss rate": l2_rate,
        })

    summary = {
        "gpu": gpu.name,
        "batch": batch,
        "l1_miss_rate_min": min(l1_rates),
        "l1_miss_rate_max": max(l1_rates),
        "l2_miss_rate_min": min(l2_rates),
        "l2_miss_rate_max": max(l2_rates),
    }
    series = {
        "L1 miss rate": [(row["layer"], row["L1 miss rate"]) for row in rows],
        "L2 miss rate": [(row["layer"], row["L2 miss rate"]) for row in rows],
    }
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
