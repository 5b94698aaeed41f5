"""One benchmark for the whole detection pipeline.

``python3 perfbench/run.py --workload <name>`` runs one named workload,
checks its outputs and prints its metrics; ``--trace 1`` adds a traced
pass whose spans give the per-layer cost ledger.  See ``README.md`` in
this directory for the workloads, the metrics and the layer map.
"""
