"""Resource caps for enumerations and searches.

Every potentially exponential routine takes a Budgets value and raises
BudgetExceeded when it would do more work than allowed.  Exhausting a budget
is a distinct outcome from "property holds" / "property fails": callers that
run verification pipelines map it to an inconclusive verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Budgets:
    # Largest explicit closed-set family we will materialize; intersection
    # closures check it after each generator, the down flats after each
    # rank level, the section search and the star family walk at each set
    # found.
    family_cap: int = 2**20
    # Backtracking search nodes (orthocomplementation and automorphism
    # search, and the rows placed by the section search behind the
    # materialized top and the star generators and by the star family
    # walk) and the candidate columns tried by the similitude solve.
    node_cap: int = 10**8
    # Subspaces one build may list: the subspaces of a factor model, which
    # are counted before any of its points is listed, and the hyperplane
    # normals of the tensor model behind down.
    subspace_cap: int = 10**6

    def with_overrides(self, **kwargs: int) -> "Budgets":
        return replace(self, **kwargs)


DEFAULT_BUDGETS = Budgets()
