"""RDF substrate: triple store and structural summary.

Input graphs are taken as saturated, as the paper assumes (Section 2).
"""
from repro.rdf.triples import TRIPLE_SCHEMA, TripleStore, triples_from_pandas

__all__ = ["TRIPLE_SCHEMA", "TripleStore", "triples_from_pandas"]
