"""Running mean of a subspace stream, updated one subspace at a time.

A stream's mean starts as ``MeanSubspaceState(first, 1)``, the first subspace
itself. The online rule moves the current mean 1/(n+1) of the way along the
geodesic toward the n+1-th subspace, so each batch costs one decomposition and
no history is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .subspaces import Subspace, _count, evaluate, principal_system


@dataclass(frozen=True, eq=False)
class MeanSubspaceState:
    """Current mean subspace together with how many subspaces it averages."""

    mean: Subspace
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", _count("count", self.count, 1))


def update_mean(state: MeanSubspaceState, new: Subspace) -> MeanSubspaceState:
    """Fold one more subspace into the running mean.

    The updated mean sits at parameter 1/(count+1) on the geodesic from the
    current mean to ``new``, i.e. it moves distance d/(count+1) when ``new``
    is at geodesic distance d. The rule is order-dependent from the third
    subspace on; see :func:`driftalign.verify.karcher_mean` for the
    order-free reference. A ``new`` of another shape than the mean raises
    DimensionMismatch, from :func:`principal_system`.
    """
    new_count = state.count + 1
    return MeanSubspaceState(mean=evaluate(principal_system(state.mean, new), 1.0 / new_count), count=new_count)

