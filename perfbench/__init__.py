"""The repository benchmark: seeded workloads driven through the public API.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` maps every
metric to the layer that should move it and the workload it shows on.
"""
