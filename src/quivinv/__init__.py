"""Exact computation of invariant-ring generators and relations for quiver
representation spaces with frozen vertices.

The pipeline: model a quiver with relations (:mod:`quivinv.quiver`,
:mod:`quivinv.quiverfile`), expand trace and contraction polynomials and the
representation-scheme ideal (:mod:`quivinv.invariants`), enumerate kernel
generators of the restriction map and present the invariant ring by Groebner
elimination (:mod:`quivinv.kernel`, :mod:`quivinv.groebner`), and cross-check
everything against exact matrix evaluation (:mod:`quivinv.evaluation`,
:mod:`quivinv.verification`).
"""

from .groebner import (
    BudgetExceededError,
    ComputeBudget,
    GroebnerBasis,
    Ideal,
    eliminate,
    ideal_equal,
)
from .invariants import (
    GeneratorEntry,
    GeneratorSet,
    contraction_poly,
    framed_correspondence,
    lusztig_generators,
    rep_ideal,
    ring_for,
    trace_poly,
)
from .kernel import (
    InvariantPresentation,
    KernelGenerator,
    NotExpressibleError,
    kernel_generators,
    present_invariant_ring,
    rewrite_in_generators,
)
from .evaluation import (
    GroupElement,
    RepPoint,
    act,
    check_invariance,
    eval_poly,
    random_group,
    random_rep,
)
from .polyring import (
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    RingError,
    Variable,
    arrow_var,
    fresh_var,
)
from .quiver import (
    AlgebraElement,
    Arrow,
    DimensionVector,
    FramedQuiver,
    Path,
    Presentation,
    Quiver,
    QuiverError,
    Relation,
    algebra_element,
    compose,
    enumerate_cycles_in_k,
    enumerate_paths,
    framed_quiver,
    path_from_arrows,
    path_from_word,
    sandwich,
    trivial_path,
)
from .quiverfile import QuiverFileError, load_presentation, parse_presentation
from .verification import run_verification

__version__ = "0.1.0"
