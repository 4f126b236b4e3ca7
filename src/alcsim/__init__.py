"""ALC knowledge-base toolkit.

Parses a line-oriented KB format, reasons over it with a tableau
(open world) and a canonical-interpretation evaluator (closed world),
approximates most specific concepts, and scores extension-based
semantic similarity between concepts and individuals.
"""

from importlib import resources

from .canonical import (
    CanonicalModel,
    build_canonical,
    eval_concept,
    retrieve_canonical,
    told_closure,
)
from .cluster import Dendrogram, cluster_matrix, render_dendrogram
from .errors import (
    AlcsimError,
    CardinalityViolation,
    CyclicTBox,
    DefinitionTooDeep,
    InvalidShape,
    UnknownIndividual,
    UnsupportedNegation,
)
from .model import (
    ABox,
    And,
    AtLeast,
    Atom,
    Bottom,
    ConceptExpr,
    DefKind,
    Definition,
    Exists,
    Forall,
    KnowledgeBase,
    Not,
    Or,
    Signature,
    TBox,
    Top,
    concept_depth,
    make_and,
    make_or,
    nnf,
    normalize,
    unfold,
)
from .msc import MscResult, abox_depth, msc_approx, msc_extension
from .parser import ErrorKind, ParseError, parse_concept, parse_kb, serialize
from .retrieval import Backend, ExtensionEngine
from .similarity import (
    SimilarityReport,
    sim_concepts,
    sim_formula,
    sim_individual_concept,
    sim_individuals,
    sim_matrix,
    sim_pair,
)
from .tableau import (
    ReasonerStats,
    TableauReasoner,
    abox_consistent,
    equivalent,
    instance_check,
    is_satisfiable,
    retrieve_entail,
    subsumes,
)

__version__ = "0.1.0"


def fixture_text(name: str) -> str:
    """Text of a bundled ``.dlkb`` fixture (``family`` or ``fathers``)."""
    return (resources.files(__name__) / "fixtures" / f"{name}.dlkb").read_text()


def load_fixture(name: str) -> KnowledgeBase:
    return parse_kb(fixture_text(name))
