"""End-to-end, layer-attributed benchmark of the paper's protocol.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
