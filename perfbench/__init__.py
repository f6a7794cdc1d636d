"""Whole-model benchmark of the emulator: see ``perfbench/README.md``."""
