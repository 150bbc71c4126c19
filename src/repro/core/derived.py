"""Derived Property Enumeration (Section 3, offline phase).

From the offline per-property statistics we decide, per direct
property, which derivations to generate:

* ``count(a)``  — number of values of a multi-valued property ``a``;
* ``kw(a)``     — keywords occurring in the values of a text property;
* ``lang(a)``   — language of a text property (stopword tagger);
* ``a/b``       — length-1 paths: value of ``b`` on the nodes referred
                  to by ``a`` (``a`` must be a *ref* property).

Each derived property is an ordinary ``Attribute``. Its rows come from
one SQL fragment per derivation *kind* over the direct part of the
graph (``derivations``), so the load plans the same few statements
whatever the attribute count; the base property names enter as array
parameters. Statistics are computed by the same Online Attribute
Analysis as for direct properties.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.core.attributes import Attribute, AttributeStats
from repro.core.config import SpadeConfig
from repro.core.query import Query

#: Stopword lists keyed by language tag — the tagger assigns the
#: language with the most stopword hits (ties broken in key order).
LANG_STOPWORDS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "with", "for", "from", "this", "that"),
    "fr": ("le", "la", "et", "de", "avec", "pour", "dans", "une"),
}

#: Words never emitted as keywords (union of all language stopwords).
_ALL_STOPWORDS = tuple(w for ws in LANG_STOPWORDS.values() for w in ws)


@dataclass(frozen=True)
class DerivationCounts:
    """How many derived properties of each kind were generated —
    the #DP columns of the paper's Table 2."""

    kw: int = 0
    lang: int = 0
    count: int = 0
    path: int = 0

    @property
    def total(self) -> int:
        return self.kw + self.lang + self.count + self.path


def count_attribute(prop: str) -> Attribute:
    """count(a): per-subject number of values of ``a`` (as a string)."""
    return Attribute(f"count({prop})", None, "count", frozenset([prop]))


def kw_attribute(prop: str) -> Attribute:
    """kw(a): keywords (long non-stopword tokens) of a text property."""
    return Attribute(f"kw({prop})", None, "kw", frozenset([prop]))


def lang_attribute(prop: str) -> Attribute:
    """lang(a): per-value language via stopword hits, at most one tag
    per value; a subject may still be multi-tagged across values."""
    return Attribute(f"lang({prop})", None, "lang", frozenset([prop]))


def path_attribute(ref_prop: str, target_prop: str) -> Attribute:
    """a/b: follow ref property ``a`` then read property ``b``."""
    return Attribute(
        f"{ref_prop}/{target_prop}", None, "path", frozenset([ref_prop, target_prop])
    )


_TOKENS = "split(lower(o), '[^a-z]+')"

#: One (a, s, o) fragment per derivation kind over the direct part
#: ``{direct}``; ``a`` is the derived attribute's name. In ``lang``, the
#: language with the most stopword hits wins, ties to the first in
#: ``LANG_STOPWORDS`` order (the struct compares hits, then -position).
#: A path is selected by its name, the key of its rows in the union.
_FRAGMENTS = {
    "count": (
        "SELECT concat('count(', a, ')') AS a, s, CAST(count(o) AS STRING) AS o"
        " FROM {direct} WHERE array_contains(:count_props, a) GROUP BY a, s"
    ),
    "kw": (
        "SELECT DISTINCT concat('kw(', a, ')') AS a, s, w AS o FROM ("
        f"SELECT a, s, explode({_TOKENS}) AS w FROM {{direct}}"
        " WHERE array_contains(:kw_props, a))"
        " WHERE length(w) >= :kw_min_len AND NOT array_contains(:stopwords, w)"
    ),
    "lang": (
        "SELECT DISTINCT concat('lang(', a, ')') AS a, s, best.tag AS o FROM ("
        "SELECT a, s, array_max(transform(:lang_tags, (tag, i) -> named_struct("
        f"'hits', size(array_intersect({_TOKENS}, element_at(:lang_words, i + 1))),"
        " 'rank', -i, 'tag', tag))) AS best"
        " FROM {direct} WHERE array_contains(:lang_props, a)) WHERE best.hits > 0"
    ),
    "path": (
        "SELECT DISTINCT concat(x.a, '/', y.a) AS a, x.s, y.o"
        " FROM {direct} x JOIN {direct} y ON x.o = y.s"
        " WHERE array_contains(:path_props, x.a) AND array_contains(:path_props, y.a)"
        " AND array_contains(:paths, concat(x.a, '/', y.a))"
    ),
}


def derivations(
    direct: DataFrame, attributes: list[Attribute], kw_min_len: int
) -> list[Query]:
    """The rows (a, s, o) of the derived ``attributes``: one fragment per
    derivation kind among them, each over the direct part (a frame of
    ``attributes.direct_part``)."""

    def props(kind: str) -> list[str]:
        return sorted({p for a in attributes if a.kind == kind for p in a.derived_from})

    args = {
        "count": {"count_props": props("count")},
        "kw": {
            "kw_props": props("kw"),
            "kw_min_len": kw_min_len,
            "stopwords": list(_ALL_STOPWORDS),
        },
        "lang": {
            "lang_props": props("lang"),
            "lang_tags": list(LANG_STOPWORDS),
            "lang_words": [list(ws) for ws in LANG_STOPWORDS.values()],
        },
        "path": {
            "path_props": props("path"),
            "paths": sorted(a.name for a in attributes if a.kind == "path"),
        },
    }
    return [
        Query(text, args[kind], {"direct": direct})
        for kind, text in _FRAGMENTS.items()
        if props(kind)
    ]


_PATH_PAIRS = (
    "SELECT x.a AS pa, y.a AS pb, count(DISTINCT x.s) AS support"
    " FROM {direct} x JOIN {direct} y ON x.o = y.s"
    " WHERE array_contains(:refs, x.a) GROUP BY x.a, y.a"
)


def enumerate_path_pairs(direct: DataFrame, ref_props: list[str]) -> list[tuple[str, str, int]]:
    """(a, b, support) for every length-1 path a/b with a in ref_props,
    b a non-type property of a's target nodes. One Spark job over the
    direct part."""
    if not ref_props:
        return []
    pairs = Query(_PATH_PAIRS, {"refs": ref_props}, {"direct": direct}).run().collect()
    return sorted(
        ((r["pa"], r["pb"], r["support"]) for r in pairs),
        key=lambda x: (-x[2], x[0], x[1]),
    )


def derive_attributes(
    direct: DataFrame,
    offline_stats: dict[str, AttributeStats],
    config: SpadeConfig,
) -> tuple[list[Attribute], DerivationCounts]:
    """All derived attributes per the offline decision rules (their rows:
    ``derivations``); one Spark job, for the path pairs."""
    if not config.enable_derivations:
        return [], DerivationCounts()
    counts = {"kw": 0, "lang": 0, "count": 0, "path": 0}
    out: list[Attribute] = []
    ref_props: list[str] = []
    for prop, st in sorted(offline_stats.items()):
        if st.multi_count >= config.multi_count_threshold:
            out.append(count_attribute(prop))
            counts["count"] += 1
        is_text = (not st.is_numeric) and st.text_frac >= config.text_frac_threshold
        if is_text:
            out.append(kw_attribute(prop))
            out.append(lang_attribute(prop))
            counts["kw"] += 1
            counts["lang"] += 1
        if st.ref_frac >= config.ref_frac_threshold and not st.is_numeric:
            ref_props.append(prop)
    for pa, pb, _support in enumerate_path_pairs(direct, ref_props)[: config.max_paths]:
        # Only expand paths whose endpoint is not itself a ref/text blob:
        # length-1 paths to categorical/numeric values (paper's Table 2
        # counts length-1 paths as "the most numerous").
        end_stats = offline_stats.get(pb)
        if end_stats is None or end_stats.ref_frac >= config.ref_frac_threshold:
            continue
        out.append(path_attribute(pa, pb))
        counts["path"] += 1
    return out, DerivationCounts(**counts)
