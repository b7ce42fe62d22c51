"""Braid-move graphs of Coxeter-group expressions and their parity laws."""

from .braid_graph import (
    Arc,
    BraidGraph,
    ElementCapExceeded,
    GenPair,
    LengthParityMismatch,
    PairClass,
    PairClassPartition,
    braid_moves,
    expression_graph,
    finite_pairs,
    op_class,
    pair_classes,
    reduced_graph,
)
from .catalog import catalog_matrix
from .core import (
    Asymmetric,
    CapExceededError,
    CoxeterMatrix,
    DiagonalNotOne,
    DihedralReflectionWord,
    Element,
    INFINITY,
    MatrixError,
    NonSquare,
    OffDiagonalBelowTwo,
    Reflection,
    Word,
    conjugate,
    dihedral_reflection_word,
    enumerate_elements,
    generator_element,
    generator_reflection,
    identity_element,
    inverse,
    multiply,
    reduce_word,
    reduced_expressions,
    reduced_word_counts,
    validate_matrix,
)
from .inversions import InversionWord, inversion_word, occurrence_vector
from .verify import (
    BraidStepCertificate,
    CycleParityReport,
    NotABraidStep,
    StepResult,
    Verdict,
    find_braid_factor,
    fundamental_cycles,
    verify_arc_steps,
    verify_has_step,
    verify_parity,
)

__version__ = "0.1.0"

# props serves the `props` command alone, so it is imported at first use
_PROPS = ("occurrence_bit", "order_of_product", "property_harness", "subword_embedding_count")


def __getattr__(name):
    if name in _PROPS:
        from . import props

        return getattr(props, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_PROPS])
