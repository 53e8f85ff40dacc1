"""The benchmark's traced run wraps named functions and methods of the
package; each name it wraps must exist, and ``restore`` must put every
original back.

``perfbench/run.py --trace 1`` installs timing wrappers by attribute name
(``ResultStore.get``, ``SetAssociativeCacheBank.access_block``, ...).  A
change that deletes or renames one of those names breaks the traced run
without failing any other test, so this one installs and restores every
workload's hooks.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _current(owner, attr):
    """What ``owner.attr`` is bound to (a class's own ``__dict__`` entry,
    so classmethods compare as the descriptor the tracer saved)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


@pytest.mark.parametrize("workload",
                         ["dse_sweep", "estimate_serve", "sim_validate"])
def test_install_wraps_existing_names_and_restore_undoes_it(workload,
                                                            monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    module = importlib.import_module(workload)
    tracer = importlib.import_module("tracer").Tracer()
    try:
        module._install(tracer)
        patches = list(tracer._patches)
        assert patches, f"{workload} wrapped nothing"
        for owner, attr, original in patches:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, (owner, attr)
