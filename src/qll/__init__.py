"""Workbench for finite quantum-logic lattices.

Builds weak tensor products of simple closure spaces (sep, top, down, star),
searches for orthocomplementations, decides structural lattice properties,
computes automorphism groups, and runs verification pipelines for the
structure theorems on desk-scale instances.
"""

from .atomset import *  # the family door's value type, which perfbench imports
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import (
    ClosureSpace,
    ExplicitSpace,
    ImplicitSpace,
    ValidationReport,
    find_covering_violation,
    find_dual_covering_violation,
    is_coatomistic,
    powerset_space,
    space_from_json,
    space_from_masks,
    space_to_json,
    validate_simple_closure_space,
)
from .errors import (
    BudgetExceeded,
    ContractViolation,
    DecompositionFailed,
    DegenerateFormError,
    InducedMapNotAutomorphism,
    InputError,
    IsotropicAtomError,
    QllError,
    UniverseMismatch,
    UnsupportedRepresentation,
)
from .ortho import (
    OrthogonalityRelation,
    OrthoMap,
    OrthoSearchResult,
    find_orthocomplementations,
    find_orthomodularity_violation,
    four_atom_condition,
    ortho_from_atom_orthogonality,
    third_atom_condition,
    verify_orthocomplementation,
)
from .geometry import (
    SubspaceModel,
    Subspace,
    build_projective_space,
    enumerate_subspaces,
    linear_map_coatom,
    mo_lattice,
    sigma_down,
    similitude_group,
    tensor_model,
)
from .products import (
    AxiomReport,
    IntervalReport,
    PairGrid,
    ProductInstance,
    check_p123,
    check_p4,
    down_product,
    interval_check,
    materialize_top_product,
    sep_product,
    star_generators,
    star_product,
    top_product,
)
from .automorphisms import (
    AtomPermutation,
    Decomposition,
    automorphism_group,
    decompose_automorphism,
    induced_product_automorphism,
    is_automorphism,
    orbits,
)
from .export import export_dot
from .harness import (
    CheckResult,
    NamedInstance,
    TheoremReport,
    build_product,
    list_instances,
    list_theorems,
    resolve_base,
    resolve_instance,
    verify,
)

__version__ = "0.1.0"
