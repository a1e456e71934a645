"""Real-time human-presence detection for low-resolution thermal imagery.

Two cheap per-frame detectors (background-subtraction movement and quadrant
region-of-interest) are fused into a hybrid presence verdict that drives a
quadrant-zone safety state machine. The package also ships a deterministic
synthetic-scene generator, a confusion-matrix evaluation harness, and a CLI
for replay, evaluation and synthesis.
"""

__version__ = "0.1.0"
