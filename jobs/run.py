"""Run the paper's tables and experiments by name.

    python jobs/run.py table1 table2 exp1 --scale bench --queries 25
    python jobs/run.py exp5-sweep --local
    python jobs/run.py dataflow --scale test --keys D8 D9

Each name is one entry of ``repro.experiments.catalog.EXPERIMENTS``: the
driver runs its rows function over its (dataset, θ) plan, prints the
markdown table with the paper's reference points, saves the rows under
``results/`` and then runs the experiment's paper-shape check.  The keyword
parameters of a rows function are the options it honours: ``plan``
(filtered by ``--keys``), ``scale``, ``n_queries`` (``--queries``),
``seed`` and ``spark`` (``None`` under ``--local``; a ``spark`` without a
default cannot run locally).

``repro`` must be importable, by Spark's Python workers too:
``pip install -e .`` or ``PYTHONPATH=src``.

Exit status: 0 when every check holds, 1 when a check fails, 2 on a usage
error (an unknown name, or an option an experiment cannot honour).
"""
from __future__ import annotations

import argparse
import inspect
import sys

from repro.experiments.catalog import EXPERIMENTS
from repro.experiments.io import fmt_markdown_table, save_results, spark_session
from repro.graph.datasets import DATASET_KEYS

# The rows-function parameter behind each option some experiments lack.
_OPTIONS = {"plan": "--keys", "scale": "--scale", "n_queries": "--queries"}


def _scale(v: str):
    return v if v in ("test", "bench") else float(v)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("names", nargs="+", choices=list(EXPERIMENTS), metavar="NAME",
                   help=" | ".join(EXPERIMENTS))
    p.add_argument("--scale", type=_scale,
                   help="test | bench | explicit sf (default: bench)")
    p.add_argument("--queries", type=int,
                   help="queries per (dataset, θ) cell (default: 25)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--local", action="store_true",
                   help="run the workload in-process instead of on Spark")
    p.add_argument("--keys", nargs="+", choices=DATASET_KEYS, metavar="KEY",
                   help="keep only these datasets' cells of each plan")
    return p


def _arguments(name: str, args: argparse.Namespace) -> dict:
    """Keyword arguments of ``name``'s rows function, ``spark`` still None;
    ValueError if ``args`` asks for something the experiment cannot do."""
    exp = EXPERIMENTS[name]
    params = inspect.signature(exp.rows).parameters
    given = {"plan": args.keys, "scale": args.scale, "n_queries": args.queries}
    for param, flag in _OPTIONS.items():
        if given[param] is not None and param not in params:
            raise ValueError(f"{name} takes no {flag}")
    kwargs = {"seed": args.seed}
    if "spark" in params:
        if args.local and params["spark"].default is inspect.Parameter.empty:
            raise ValueError(f"{name} runs on Spark; it cannot run --local")
        if not args.local:
            kwargs["spark"] = None
    if "plan" in params:
        keys = args.keys or DATASET_KEYS
        kwargs["plan"] = [(key, th) for key, th in exp.plan if key in keys]
        if not kwargs["plan"]:
            raise ValueError(f"{name} has no cell on {' '.join(keys)}")
    if "scale" in params:
        kwargs["scale"] = args.scale or "bench"
    if "n_queries" in params:
        kwargs["n_queries"] = 25 if args.queries is None else args.queries
    return kwargs


def main(argv=None) -> int:
    p = _parser()
    args = p.parse_args(argv)
    try:
        calls = {name: _arguments(name, args) for name in args.names}
    except ValueError as e:
        p.error(str(e))
    on_spark = [kw for kw in calls.values() if "spark" in kw]
    if on_spark:
        spark = spark_session()
        for kw in on_spark:
            kw["spark"] = spark
    failed = 0
    for name, kwargs in calls.items():
        exp = EXPERIMENTS[name]
        rows = exp.rows(**kwargs)
        print(f"\n## {exp.title}\n")
        print(fmt_markdown_table(rows, exp.columns))
        if exp.notes:
            print("\nPaper reference points:")
            for note in exp.notes:
                print(f"  - {note}")
        print(f"\n[saved {save_results(exp.results, rows, exp.columns)}]")
        if exp.check and not exp.check(rows):
            failed += 1
            shape = " ".join(exp.check.__doc__.split())
            print(f"\nCHECK FAILED ({name}): {shape}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
