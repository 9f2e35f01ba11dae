"""Benchmark suite layout.

Every ``test_fig*.py`` benchmark regenerates one figure of the paper at a
reduced scale (so the suite stays fast) and prints the series it produced;
run the experiment drivers in ``repro.experiments`` directly with their
default parameters for the full-size campaigns recorded in EXPERIMENTS.md.

``test_perf_counts.py`` checks the hot paths' structural counts (schedule
size, delivered == sent, resumes per tick, records touched) and
``test_perf_scaling.py`` the within-run scaling ratios, timed through the
one definition of a rep that file holds.  None of them compares against a number
measured on another host and none writes a file.  Absolute speed is the
repo benchmark's job: ``python3 bench/run.py``, parent against change on
one host.
"""
