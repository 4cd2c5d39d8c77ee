"""The user-extension surface (SURVEY.md §2.10): a pipeline-step
registry.  The reference's extension point is "add an argparse
subcommand" (reference __main__.py:38-54); the rebuild's is a named
``Dataset -> Dataset`` step registry plus a declarative composer, so a
user writes

    {"input": "/data/documents.parquet",
     "steps": [{"step": "redact"},
               {"step": "sample", "args": {"p": 0.1}},
               {"step": "select", "args": {"columns": ["doc_id", "text"]}}]}

and runs it via ``python -m entity_context_crawler_ray pipeline
spec.json out/`` (locally or through ``ray job submit`` — the CLI is
the job entry point).  ``@register_step`` adds custom steps; every
built-in operator stage is pre-registered.
"""

from __future__ import annotations

import json
from typing import Callable, Dict

import pyarrow as pa
import ray.data

STEPS: Dict[str, Callable] = {}
_STEP_DOC: Dict[str, str] = {}


def register_step(name: str, doc: str = ""):
    """Decorator: register ``fn(ds, **args) -> Dataset`` under name."""

    def wrap(fn: Callable) -> Callable:
        STEPS[name] = fn
        if doc:
            _STEP_DOC[name] = doc
        elif fn.__doc__:
            _STEP_DOC[name] = fn.__doc__.strip().splitlines()[0]
        else:
            _STEP_DOC[name] = ""
        return fn

    return wrap


def list_steps() -> Dict[str, str]:
    return dict(_STEP_DOC)


def run_pipeline(spec: dict) -> ray.data.Dataset:
    """Compose the spec's steps over its input.  ``input`` is a
    parquet path (columns pruned via ``input_columns``); each step is
    looked up in the registry and applied in order — all lazy, one
    streaming execution when the caller consumes the result."""
    ds = ray.data.read_parquet(spec["input"], columns=spec.get("input_columns"))
    for item in spec.get("steps", []):
        name = item["step"]
        if name not in STEPS:
            raise KeyError(
                f"unknown step {name!r}; registered: {sorted(STEPS)}"
            )
        ds = STEPS[name](ds, **item.get("args", {}))
    return ds


# --- built-in steps (the operator library, surfaced by name) --------------


@register_step("redact", "scrub PII/patterns from a text column")
def _step_redact(ds, text_col: str = "text", rules=None):
    from ..stages import textstats

    return ds.map_batches(
        textstats.make_redactor(
            rules=tuple(map(tuple, rules)) if rules else textstats.DEFAULT_REDACT,
            text_col=text_col,
        ),
        batch_format="pyarrow",
    )


@register_step("sample", "deterministic hash-fraction sample")
def _step_sample(ds, key_col: str = "doc_id", p: float = 0.1, salt: str = "sample"):
    from ..stages import stats

    return stats.sample_fraction(ds, key_col, p, salt)


def _textstat_step(fn_name: str):
    def step(ds, text_col: str = "text"):
        from ..stages import textstats

        fn = getattr(textstats, fn_name)
        return ds.map_batches(
            lambda t: fn(t, text_col=text_col), batch_format="pyarrow"
        )

    return step


register_step("doc_stats", "token/word/punct counts")(_textstat_step("doc_stats"))
register_step("quality", "stopword/length quality signals")(_textstat_step("quality_score"))
register_step("lang_id", "stopword-vote language id")(_textstat_step("lang_id"))
register_step("fingerprint", "min-shingle md5 fingerprint")(_textstat_step("fingerprint"))
register_step("simhash", "64-bit simhash signature")(_textstat_step("simhash64"))


@register_step("exact_dedup", "keep first row per distinct text")
def _step_exact_dedup(ds, text_col: str = "text", order_col: str = "doc_id"):
    from ..stages import dedup

    return dedup.exact_dedup_first(ds, text_col=text_col, order_col=order_col)


@register_step("clean_text", "reference sentence-level cleaner")
def _step_clean(ds, text_col: str = "text"):
    from ..functions.text import clean_up_text

    def clean(t: pa.Table) -> pa.Table:
        idx = t.schema.get_field_index(text_col)
        return t.set_column(
            idx,
            text_col,
            pa.array([clean_up_text(x) for x in t[text_col].to_pylist()], pa.string()),
        )

    return ds.map_batches(clean, batch_format="pyarrow")


@register_step("select", "project columns")
def _step_select(ds, columns):
    return ds.select_columns(columns)


@register_step("limit", "first n rows")
def _step_limit(ds, n: int):
    return ds.limit(n)


@register_step("repartition", "set output partition count")
def _step_repartition(ds, n: int):
    return ds.repartition(n)


def load_spec(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@register_step("top_k_per_key", "per-key window top-k")
def _step_grouped_topk(ds, group_key: str, by, k: int, descending):
    from ..stages import relational

    return relational.grouped_top_k(
        ds, group_key=group_key, by=by, k=k, descending=descending
    )


@register_step("minhash_bands", "md5 minhash LSH band rows")
def _step_minhash_bands(ds, num_perm: int = 16, bands: int = 4, shingle_n: int = 3):
    from ..stages import dedup

    return ds.map_batches(
        lambda t: dedup.minhash_bands(
            t, num_perm=num_perm, bands=bands, shingle_n=shingle_n
        ),
        batch_format="pyarrow",
    )


@register_step("quality_model", "linear classifier inference (actor pool)")
def _step_quality_model(ds, dim: int = 4096, concurrency: int = 2):
    from ..stages.textstats import QualityModel

    return ds.map_batches(
        QualityModel,
        fn_constructor_kwargs={"dim": dim},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


@register_step("span_dedup", "remove repeated >=n-token spans corpus-wide")
def _step_span_dedup(ds, n: int = 8):
    from ..stages import dedup

    return dedup.span_dedup_clean(ds, n=n)


@register_step("bpe_encode", "token count under a trained BPE merge table")
def _step_bpe_encode(ds, num_merges: int = 8):
    from ..stages import textstats

    merges = textstats.bpe_train(ds, num_merges=num_merges)
    return textstats.bpe_encode_count(ds, merges)
