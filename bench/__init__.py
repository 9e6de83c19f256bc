"""The repo's benchmark: one end-to-end harness with per-layer attribution.

``python3 bench/run.py`` is the single entry point (see ``bench/README.md``).
Everything here drives ``repro`` from outside, through its public surfaces.
"""
