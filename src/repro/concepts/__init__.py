"""First-class concepts: the paper's primary contribution.

Public API overview::

    from repro.concepts import (
        Concept, Param, Assoc, Exact,               # definition language
        AssociatedType, ValidExpression, SameType,  # requirement kinds
        ConceptRequirement, SemanticAxiom, ComplexityGuarantee,
        method, function, operator,                 # requirement shorthands
        models, declare_model, check_concept, require,  # modeling relation
        GenericFunction, most_refined_concept,      # concept-based overloading
        propagate, Constraint, AlgorithmSignature,  # constraint propagation
        make_archetypes, exercise, ArchetypeSet,    # archetypes
        Taxonomy, AlgorithmConcept,                 # algorithm taxonomies
        BigO,                                       # complexity guarantees
    )
    from repro.concepts.builtins import StrictWeakOrder, ForwardIterator, ...
    from repro.concepts.algebra import Monoid, Group, VectorSpace, algebra
"""

from . import complexity
from .archetypes import ArchetypeSet, OpaqueValue, exercise, make_archetypes
from .docgen import concept_figure, concept_reference, refinement_lattice
from .dsl import ConceptSyntaxError, parse_concept, parse_concepts
from .complexity import BigO
from .concept import Concept, concept, substitute, substitute_requirement
from .errors import (
    AmbiguousOverloadError,
    ArchetypeViolation,
    CheckReport,
    ConceptCheckError,
    ConceptDefinitionError,
    ConceptError,
    NoMatchingOverloadError,
    RequirementFailure,
    SemanticAxiomViolation,
)
from .modeling import (
    ConceptMap,
    ModelRegistry,
    OperationRegistry,
    OpsNamespace,
    RegistrySnapshot,
    check_concept,
    declare_model,
    models,
    operations,
    ops_for,
    require,
)
from .overload import GenericFunction, most_refined_concept
from .propagation import (
    AlgorithmSignature,
    Constraint,
    PropagatedConstraints,
    implied_by,
    propagate,
)
from .requirements import (
    AnyType,
    Assoc,
    AssociatedType,
    ComplexityGuarantee,
    ConceptRequirement,
    Exact,
    Param,
    Requirement,
    SameType,
    SemanticAxiom,
    TypeExpr,
    ValidExpression,
    function,
    method,
    operator,
)
from .taxonomy import AlgorithmConcept, GuaranteeCheck, Taxonomy, check_guarantee
from .where import constraints_of, declaration_of, where

__all__ = [
    "AlgorithmConcept",
    "AlgorithmSignature",
    "AmbiguousOverloadError",
    "AnyType",
    "ArchetypeSet",
    "ArchetypeViolation",
    "Assoc",
    "AssociatedType",
    "BigO",
    "CheckReport",
    "ComplexityGuarantee",
    "Concept",
    "ConceptCheckError",
    "ConceptDefinitionError",
    "ConceptError",
    "ConceptMap",
    "ConceptRequirement",
    "Constraint",
    "Exact",
    "GenericFunction",
    "ModelRegistry",
    "NoMatchingOverloadError",
    "OpaqueValue",
    "OperationRegistry",
    "Param",
    "PropagatedConstraints",
    "Requirement",
    "RequirementFailure",
    "SameType",
    "SemanticAxiom",
    "SemanticAxiomViolation",
    "Taxonomy",
    "GuaranteeCheck",
    "check_guarantee",
    "TypeExpr",
    "ValidExpression",
    "check_concept",
    "complexity",
    "concept",
    "concept_figure",
    "parse_concept",
    "parse_concepts",
    "ConceptSyntaxError",
    "concept_reference",
    "refinement_lattice",
    "declare_model",
    "exercise",
    "function",
    "implied_by",
    "make_archetypes",
    "method",
    "models",
    "most_refined_concept",
    "operations",
    "operator",
    "ops_for",
    "OpsNamespace",
    "RegistrySnapshot",
    "propagate",
    "require",
    "substitute",
    "substitute_requirement",
    "where",
    "constraints_of",
    "declaration_of",
]
