"""Outage and ergodic-rate evaluation for multi-cell pinching-antenna
downlinks: a closed-form engine and an independent Monte Carlo simulator
that cross-validate each other."""

__version__ = "0.10.0"
