"""Aggregate Result Manager (ARM) and Top-k Computation (Steps 4-5).

The ARM receives evaluated MDA results incrementally and finally
applies the interestingness function h in one pass over each stored
result to produce the top-k list.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.interestingness import get as get_h
from repro.core.mda import MDAKey


@dataclass
class StoredResult:
    """One evaluated MDA."""

    key: MDAKey
    result: pd.DataFrame  # dims + value


@dataclass
class RankedMDA:
    """One entry of the top-k list."""

    key: MDAKey
    score: float
    result: pd.DataFrame


@dataclass
class AggregateResultManager:
    """Stores MDA results and computes the top-k by interestingness."""

    _store: dict[MDAKey, StoredResult] = field(default_factory=dict)

    def add(self, key: MDAKey, result: pd.DataFrame) -> None:
        """Store one MDA result."""
        self._store[key] = StoredResult(key, result)

    def add_all(self, results: dict[MDAKey, pd.DataFrame]) -> None:
        for key, res in results.items():
            self.add(key, res)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: MDAKey) -> bool:
        return key in self._store

    def get(self, key: MDAKey) -> StoredResult | None:
        return self._store.get(key)

    def keys(self) -> list[MDAKey]:
        return sorted(self._store)

    def scores(self, h_name: str) -> dict[MDAKey, float]:
        """Interestingness of every stored MDA (one pass per result)."""
        h = get_h(h_name)
        return {
            key: h(np.asarray(sr.result["value"], dtype=np.float64))
            for key, sr in self._store.items()
        }

    def top_k(self, h_name: str, k: int) -> list[RankedMDA]:
        """The k most interesting aggregates (Problem 1). Determinism:
        ties are broken by MDAKey order."""
        scored = sorted(
            self.scores(h_name).items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            RankedMDA(key, score, self._store[key].result)
            for key, score in scored[:k]
        ]
