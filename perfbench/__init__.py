"""Steady end-to-end benchmark for the Tempus Core reproduction.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
:mod:`perfbench.run` for the report format and ``BENCHMARK.json`` for
the gated metrics and their bounds.
"""
