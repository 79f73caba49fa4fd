"""Workbench for finite bimodal Kripke frames and general frames.

Modules: formulas (ASTs, grammar, named registry), frames (frames, general
frames, structural analysis, JSON), constructions (frame builders),
semantics (evaluation, validity, witnesses), morphisms (p-morphisms),
algebra (subalgebras, free-algebra counts, block systems, point
definability), checks (the executable check registry and axiom profiler).
Import names from their modules, e.g. ``from kripkebench.semantics import
valid``.
"""

import logging

__version__ = "0.1.0"

logging.getLogger("kripkebench").addHandler(logging.NullHandler())
