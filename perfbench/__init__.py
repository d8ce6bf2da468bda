"""End-to-end benchmark of the reproduction (see ``perfbench/README.md``).

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
