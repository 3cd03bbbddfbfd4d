"""Robust finite-state-controller synthesis for interval-uncertain POMDPs."""

__version__ = "0.1.0"
