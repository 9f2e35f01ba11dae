"""Experiment drivers: one module per figure of the paper's evaluation.

Every figure is registered as a declarative scenario (see
:mod:`repro.scenarios`): importing this package populates the registry, which
is how ``python -m repro list`` finds the figures.  Each module holds the
figure's cell kernel (one measurement), its reducer (cells -> the rows the
paper plots) and the ``@scenario`` registration; there is no per-figure entry
point — run one with ``run_scenario("fig7", params=..., axes=..., seeds=...)``
or ``python -m repro run fig7``.  The benchmark harness under ``benchmarks/``
does exactly that with scaled-down parameters.
"""

from repro.experiments import (  # noqa: F401 - imported for their registrations
    ablations,
    fig4_message_logging,
    fig5_replication,
    fig6_synchronization,
    fig7_fault_frequency,
    fig8_task_durations,
    fig9_reference,
    fig10_coordinator_faults,
    fig11_partition,
)
