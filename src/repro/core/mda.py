"""MDA identity and result containers shared by evaluators and ARM."""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import COUNT_STAR


@dataclass(frozen=True, order=True)
class MDAKey:
    """Identity of one multidimensional aggregate A = <CFS, D, M, f>.

    ``dims`` is the *sorted* tuple of dimension attribute names (the
    node of the lattice), so the same MDA reached through different
    lattices has the same key — enabling the paper's cross-lattice
    result reuse.
    """

    cfs: str
    dims: tuple[str, ...]
    measure: str  # attribute name, or "*" for count(*)
    func: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(sorted(self.dims)))

    def label(self) -> str:
        m = "count(*)" if self.measure == COUNT_STAR else f"{self.func}({self.measure})"
        return f"{self.cfs}: {m} by {', '.join(self.dims) or 'ALL'}"
