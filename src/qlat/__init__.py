"""Exact quantum logic of qubit registers.

Subspace lattices of C^n over the Gaussian rationals, a propositional formula
language with evaluation and falsification search, dimension-separation
certificates, and the Temperley-Lieb diagram algebra with Jones-Wenzl
projectors and Markov traces.
"""

__version__ = "0.1.0"

from .linalg import (
    GaussianRational,
    RationalMatrix,
    conj_transpose,
    kernel,
    kron,
    matmul,
    rref,
)
from .subspace import (
    Subspace,
    random_subspace,
    span,
    subspace_from_json,
    subspace_to_json,
)
from .formula import (
    And,
    Assignment,
    Equation,
    Formula,
    Not,
    ONE,
    Or,
    ParseError,
    UnboundVariableError,
    Var,
    ZERO,
    alpha,
    alpha_iter,
    distinctness_formula,
    evaluate,
    evaluate_equation,
    free_vars,
    law,
    law_names,
    m_distributive,
    parse,
    parse_equation,
    parse_formula,
    restrict,
    to_nnf,
    to_source,
)
from .search import (
    COUNTEREXAMPLE,
    InconclusiveSearchError,
    NO_COUNTEREXAMPLE,
    SeparationCertificate,
    Verdict,
    audit_invariants,
    certificate_to_json,
    falsify,
    huhn_witness,
    lift_counterexample,
    qubit_alpha_separator,
    separate_dims,
    structured_alpha_witness,
    verdict_from_json,
    verdict_to_json,
)
from .ratfunc import RationalFunction
from .templieb import (
    ChebyshevPoly,
    JonesWenzlError,
    PlanarDiagram,
    PoleError,
    TLElement,
    chebyshev,
    enumerate_diagrams,
    eval_at_root,
    generator_e,
    jones_wenzl,
    jw_at_root,
    markov_trace,
    root_params,
    tl_to_json,
)
