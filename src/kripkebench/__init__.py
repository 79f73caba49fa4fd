"""Workbench for finite bimodal Kripke frames and general frames.

Modules: formulas (ASTs, grammar, named registry), frames (frames, general
frames, structural analysis, JSON), constructions (frame builders),
semantics (evaluation, validity, witnesses), morphisms (p-morphisms),
algebra (subalgebras, free-algebra counts, block systems, point
definability), checks (the executable check registry and axiom profiler).
"""

import logging

from .algebra import (BlockSystem, DefinabilityCertificate, SetAlgebra,
                      beta_formula, block_system, free_algebra_count,
                      generated_subalgebra)
from .checks import (CheckRecord, axiom_profile, report_json, run_all,
                     run_check)
from .constructions import (chain, cluster, lift, lintgrz, match_frame,
                            ordered_sum, product, rect, singleton,
                            swap_relations, tack, tack_pre, tense_sum,
                            univ_chain)
from .errors import (ArityMismatch, BudgetExceeded, CapExceeded,
                     EmptyRestriction, FormatError, FormulaSyntaxError,
                     KripkebenchError, NotDefinable, NotPretransitive,
                     NotTense, UnknownCheck, UnknownName, UnknownProperty)
from .formulas import (Formula, modal_depth, named_formula, parse,
                       print_formula, substitute, variables)
from .frames import (Frame, FrameSpec, GeneralFrame, SkeletonInfo, UniFrame,
                     analyze, as_general, bitstring, frame_property,
                     generated_subframe, load_frame, load_valuation,
                     restriction, store_frame, uniframe)
from .morphisms import (Violation, check_pmorphism, find_pmorphism,
                        tack_collapse, union_pmorphism)
from .semantics import Model, Witness, eval_formula, refutes_witness, valid

__version__ = "0.1.0"

logging.getLogger("kripkebench").addHandler(logging.NullHandler())
