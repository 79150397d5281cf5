"""Array-encoded skeins in a genus-2 handlebody, resolved to basis polynomials.

The public surface re-exports the data model, the pipeline entry point and
the error types; everything else is reachable through the submodules.
"""

from .errors import (
    InternalInvariantError,
    SkeinError,
    SkeinFormatError,
    SkeinValidationError,
    StepLimitExceeded,
)
from .laurent import BasisMonomial, LaurentPoly, SkeinPolynomial
from .diagram import (
    Component,
    SkeinDiagram,
    Term,
    parse_diagram,
    serialize_diagram,
    validate,
)
from .engine import run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BasisMonomial",
    "Component",
    "InternalInvariantError",
    "LaurentPoly",
    "SkeinDiagram",
    "SkeinError",
    "SkeinFormatError",
    "SkeinPolynomial",
    "SkeinValidationError",
    "StepLimitExceeded",
    "Term",
    "parse_diagram",
    "run_pipeline",
    "serialize_diagram",
    "validate",
    "__version__",
]
