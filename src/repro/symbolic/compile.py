"""A dead name kept for the benchmark: nothing in ``repro`` imports it.

The step is built by :func:`repro.symbolic.behabs.generic_step` alone.
perfbench's ``TARGETS`` (``perfbench/layers.py``) still wraps
``CompiledPlan.step_for`` by name; ROADMAP item 2 retargets that
wrapper and deletes this file.
"""

from .behabs import generic_step


class CompiledPlan:
    """The name perfbench patches; never called by the engine."""

    def step_for(self, info):
        return generic_step(info)
