"""CLI — the rebuild of the reference's ``ecc`` command surface
(reference __main__.py:9-70; subcommand wiring at :38-54):

    python -m entity_context_crawler_ray build-matches-db  INPUT ENTITIES OUT
    python -m entity_context_crawler_ray build-contexts-db ENTITIES ID_MAP MATCHES OUT
    python -m entity_context_crawler_ray crawl             DOCSTORE ENTITIES OUT

``main(argv)`` is importable and returns 0, exactly like the
reference (its integration suite drives the system through it,
reference tests/integration/test_suite.py:35-46).  Flags mirror the
reference's: ``--limit-pages --overwrite --in-memory`` for stage 1
(cmd/build_matches_db.py:24-52), ``--context-size --crop-sentences
--csv-file --limit-contexts --limit-entities --overwrite
--random-seed`` for stage 2 (cmd/build_contexts_db.py:23-74).

Inputs: INPUT is a Wikipedia XML dump (``.xml``) or a parquet
file/dir of docs rows (input_hint schema); ENTITIES is the reference's
entities JSON (``.json``) or an (entity_id, label, page_title)
parquet; ID_MAP is the reference's mid2rid TXT or parquet.  Outputs
are parquet store directories.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from typing import List, Optional

import pyarrow as pa


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False


def _read_docs_input(path: str, limit_pages: Optional[int]):
    import ray.data

    if path.endswith(".xml"):
        from .sources.wikipedia_xml import read_wikipedia_xml

        return read_wikipedia_xml(path, limit_pages=limit_pages)
    ds = ray.data.read_parquet(path)
    if limit_pages is not None:
        ds = ds.limit(limit_pages)
    return ds


def _read_entities(path: str) -> pa.Table:
    if path.endswith(".json"):
        from .sources.reference_inputs import load_entities_json

        return load_entities_json(path)
    import pyarrow.parquet as pq

    return pq.read_table(path)


def _read_id_map(path: str) -> pa.Table:
    if path.endswith((".txt", ".tsv")):
        from .sources.reference_inputs import load_mid2rid_txt

        return load_mid2rid_txt(path)
    import pyarrow.parquet as pq

    return pq.read_table(path)


def _guard_output(path: str, overwrite: bool) -> bool:
    if os.path.exists(path):
        if overwrite:
            shutil.rmtree(path, ignore_errors=True)
        else:
            print(f"{path} already exists, use --overwrite to overwrite it")
            return False
    return True


def cmd_build_matches(args) -> int:
    if not os.path.exists(args.input):
        print("input not found")
        return 1
    if not os.path.exists(args.entities):
        print("entities not found")
        return 1
    if not _guard_output(args.out, args.overwrite):
        return 1
    _ensure_ray()
    from .pipelines.build_matches import build_matches, write_store

    docs = _read_docs_input(args.input, args.limit_pages)
    entities = _read_entities(args.entities)
    combined = build_matches(docs, entities, tokenizer=getattr(args, "tokenizer", "spec"))
    if args.in_memory:
        # reference --in-memory builds fully before persisting
        # (cmd/build_matches_db.py:129-141); here: materialize then write
        combined = combined.materialize()
    write_store(combined, args.out)
    print(f"matches store written to {args.out}")
    return 0


def cmd_build_contexts(args) -> int:
    for p, name in [
        (args.entities, "entities"),
        (args.id_map, "id_map"),
        (args.matches, "matches store"),
    ]:
        if not os.path.exists(p):
            print(f"{name} not found")
            return 1
    if not _guard_output(args.out, args.overwrite):
        return 1
    if args.csv_file and os.path.exists(args.csv_file) and not args.overwrite:
        print("CSV file already exists, use --overwrite to overwrite it")
        return 1
    _ensure_ray()
    from .pipelines.build_contexts import build_contexts, context_stats
    from .pipelines.build_matches import mentions_pairs_view, read_store

    combined = read_store(args.matches).materialize()
    entities = _read_entities(args.entities)
    id_map = _read_id_map(args.id_map)
    contexts = build_contexts(
        combined,
        entities,
        id_map,
        mentions_pairs_view(combined),
        context_size=args.context_size,
        crop_sentences=args.crop_sentences,
        limit_contexts=args.limit_contexts,
        limit_entities=args.limit_entities,
        order_mode=args.order_mode,
        seed=args.random_seed,
    ).materialize()
    os.makedirs(args.out, exist_ok=True)  # an empty result is still a store
    if contexts.count():
        contexts.write_parquet(args.out)
    if args.csv_file:
        stats = context_stats(contexts).to_pandas()
        stats.to_csv(args.csv_file, index=False, header=False)
    print(f"contexts store written to {args.out} ({contexts.count()} rows)")
    return 0


def cmd_crawl(args) -> int:
    if not os.path.isdir(args.docstore):
        print("doc store not found")
        return 1
    # --resume continues INTO the existing output dir; the overwrite
    # guard only applies to fresh runs
    if not args.resume and not _guard_output(args.out, args.overwrite):
        return 1
    _ensure_ray()
    import json

    import ray

    from .pipelines.crawl import CrawlConfig, crawl
    from .sources.docs import entities_index

    entities = _read_entities(args.entities)
    ref = ray.put(entities_index(entities))
    # seeds: entity pages with a title, priority 1.0
    titles = [t for t in entities["page_title"].to_pylist() if t]
    seeds = pa.table(
        {"url": pa.array(titles), "priority": pa.array([1.0] * len(titles))}
    )
    cfg = CrawlConfig(
        max_depth=args.max_depth,
        round_budget=args.round_budget,
        capacity=args.capacity,
        refill=args.refill,
        refill_per_sec=args.refill_per_sec,
        doc_store_partitions=args.partitions,
        max_rounds=args.max_rounds,
    )
    metrics = crawl(
        args.docstore,
        seeds,
        ref,
        args.out,
        cfg,
        ckpt_dir=args.ckpt_dir,
        resume=args.resume,
    )
    print(json.dumps({k: v for k, v in metrics.items() if k != "rounds"}))
    return 0


def cmd_pipeline(args) -> int:
    if args.list_steps:
        from .pipelines.registry import list_steps

        for name, doc in sorted(list_steps().items()):
            print(f"{name:14s} {doc}")
        return 0
    if not os.path.exists(args.spec):
        print("spec not found")
        return 1
    if not _guard_output(args.out, args.overwrite):
        return 1
    _ensure_ray()
    from .pipelines.registry import load_spec, run_pipeline

    ds = run_pipeline(load_spec(args.spec))
    ds.write_parquet(args.out)
    print(f"pipeline output written to {args.out} ({ds.count()} rows)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="entity_context_crawler_ray")
    parser.add_argument("--random-seed", type=int, default=42)
    sub = parser.add_subparsers(dest="command")

    p1 = sub.add_parser("build-matches-db")
    p1.add_argument("input", help="Wikipedia XML or docs parquet")
    p1.add_argument("entities", help="entities JSON or parquet")
    p1.add_argument("out", help="output matches store dir")
    p1.add_argument("--in-memory", dest="in_memory", action="store_true")
    p1.add_argument("--limit-pages", dest="limit_pages", type=int, default=None)
    p1.add_argument(
        "--tokenizer",
        choices=["spec", "spacy"],
        default="spec",
        help="'spacy' plugs a real spaCy pipeline into the match "
        "actors (conformance comparison; requires the package)",
    )
    p1.add_argument("--overwrite", action="store_true")

    p2 = sub.add_parser("build-contexts-db")
    p2.add_argument("entities")
    p2.add_argument("id_map")
    p2.add_argument("matches")
    p2.add_argument("out")
    p2.add_argument("--context-size", dest="context_size", type=int, default=100)
    p2.add_argument("--crop-sentences", dest="crop_sentences", action="store_true")
    p2.add_argument("--csv-file", dest="csv_file", default=None)
    p2.add_argument("--limit-contexts", dest="limit_contexts", type=int, default=None)
    p2.add_argument("--limit-entities", dest="limit_entities", type=int, default=None)
    p2.add_argument(
        "--order-mode",
        dest="order_mode",
        choices=["stable-hash", "reference-shuffle"],
        default="stable-hash",
        help="--limit-entities selection order: partition-independent "
        "seeded hash (default) or bit-compatible reference "
        "random.shuffle walk",
    )
    p2.add_argument("--overwrite", action="store_true")

    p3 = sub.add_parser("crawl")
    p3.add_argument("docstore")
    p3.add_argument("entities")
    p3.add_argument("out")
    p3.add_argument("--max-depth", type=int, default=1)
    p3.add_argument("--round-budget", type=int, default=1 << 30)
    p3.add_argument("--capacity", type=int, default=1 << 30)
    p3.add_argument("--refill", type=int, default=1 << 30)
    p3.add_argument("--partitions", type=int, default=32)
    p3.add_argument("--max-rounds", type=int, default=64)
    p3.add_argument("--ckpt-dir", default=None)
    p3.add_argument("--resume", action="store_true")
    p3.add_argument("--overwrite", action="store_true")
    p3.add_argument(
        "--refill-per-sec",
        dest="refill_per_sec",
        type=float,
        default=None,
        help="wall-clock politeness: tokens/sec accrual instead of "
        "per-round refill",
    )

    p4 = sub.add_parser(
        "pipeline",
        help="compose registered Dataset->Dataset steps from a JSON spec "
        "(the SURVEY §2.10 extension surface; ray-job-submit friendly)",
    )
    p4.add_argument("spec", nargs="?", default="", help="JSON pipeline spec")
    p4.add_argument("out", nargs="?", default="", help="output parquet dir")
    p4.add_argument("--list-steps", dest="list_steps", action="store_true")
    p4.add_argument("--overwrite", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "pipeline":
        return cmd_pipeline(args)
    if args.command == "build-matches-db":
        return cmd_build_matches(args)
    if args.command == "build-contexts-db":
        return cmd_build_contexts(args)
    if args.command == "crawl":
        return cmd_crawl(args)
    parser.print_help()
    return 0


if __name__ == "__main__":
    sys.exit(main())
