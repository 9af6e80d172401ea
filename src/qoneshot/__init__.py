"""One-shot quantum information laboratory.

Exact, small-dimension implementations of hypothesis-testing divergences,
projector unions via two-projector block decompositions, position-based
decoding for entanglement-assisted compound-channel codes, and finite-set
composite hypothesis testing — each checked against an independent
numerical oracle in the test suite.
"""

__version__ = "0.1.0"
