"""Source-level hygiene for the __ray_entry__ registries (VERDICT r4 #2).

Python dict literals silently keep the LAST value for a duplicated key, so
a stale duplicate entry (like the round-4 ``copurchase_lift_top20`` pair
with two divergent oracle definitions) passes every runtime check while
leaving a semantic landmine in the source.  These tests parse the file with
``ast`` and assert the literal key lists themselves are duplicate-free, and
that the driver's frozen first-50 correctness window order never moves.
"""

import ast
import json
import sys
from collections import Counter

sys.path.insert(0, "/root/repo")

ENTRY_PATH = "/root/repo/__ray_entry__.py"


def _literal_dict_keys(func_name: str) -> list[str]:
    """String keys of every dict literal returned by ``func_name``, in
    source order (a returned dict built any other way fails loudly)."""
    tree = ast.parse(open(ENTRY_PATH).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == func_name:
            keys: list[str] = []
            # only the function's OWN top-level returns — nested helper
            # functions (SQL builders) may return non-dict values
            for stmt in node.body:
                if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Dict):
                    for k in stmt.value.keys:
                        assert isinstance(k, ast.Constant) and isinstance(
                            k.value, str
                        ), f"non-literal key in {func_name}: {ast.dump(k)}"
                        keys.append(k.value)
            assert keys, f"no top-level dict-literal return in {func_name}"
            return keys
    raise AssertionError(f"function {func_name} not found")


def test_queries_dict_has_no_duplicate_keys():
    keys = _literal_dict_keys("queries")
    dupes = [k for k, n in Counter(keys).items() if n > 1]
    assert dupes == [], f"duplicate queries() keys: {dupes}"


def test_oracle_sql_dict_has_no_duplicate_keys():
    keys = _literal_dict_keys("oracle_sql")
    dupes = [k for k, n in Counter(keys).items() if n > 1]
    assert dupes == [], f"duplicate oracle_sql() keys: {dupes}"


def test_oracle_keys_subset_of_queries():
    q = set(_literal_dict_keys("queries"))
    o = set(_literal_dict_keys("oracle_sql"))
    assert o <= q, f"oracle entries without a query: {sorted(o - q)}"


def test_driver_first50_window_order_frozen():
    """The driver hashes the first 50 queries() keys; CORRECTNESS_r04.json
    records the round-4 window.  Hold that order verbatim."""
    frozen = list(json.load(open("/root/repo/CORRECTNESS_r04.json")).keys())
    live = _literal_dict_keys("queries")[: len(frozen)]
    assert live == frozen


def test_runtime_dicts_match_literals():
    import __ray_entry__ as entrymod

    assert list(entrymod.queries().keys()) == _literal_dict_keys("queries")
    assert list(entrymod.oracle_sql().keys()) == _literal_dict_keys("oracle_sql")


def test_one_bucket_exchange():
    """Every hash-bucket exchange goes through ``aggregates.bucket_exchange``
    (one key hash, ``bucket_ids``): no other module groups or sorts on a
    bucket column, and no per-module bucketing helper is defined again."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "timberjack_ray").rglob("*.py")) \
        + [root / "__ray_entry__.py"]
    bucket_shuffle = re.compile(
        r'(?:groupby|sort)\(\s*(?:key\s*=\s*)?\[?\s*"__(?:kb|b|bucket)"')
    offenders, defined = [], []
    for path in sources:
        text = path.read_text()
        rel = path.relative_to(root)
        if path.name != "aggregates.py":
            for m in bucket_shuffle.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                offenders.append(f"{rel}:{line}")
        defined += [f"{rel}:{node.lineno}" for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "add_key_bucket"]
    assert not offenders, offenders
    assert not defined, defined


def test_map_batches_runs_tasks_only():
    """Every per-batch stage runs as tasks (a function or a pickled stage
    instance): no ``map_batches`` call starts an actor pool, so no query
    asks for more CPUs than a one-CPU session has."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "timberjack_ray").rglob("*.py")) \
        + [root / "__ray_entry__.py"]
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "map_batches":
                offenders += [f"{path.relative_to(root)}:{node.lineno} {kw.arg}"
                              for kw in node.keywords
                              if kw.arg in ("concurrency",
                                            "fn_constructor_kwargs")]
    assert not offenders, offenders


def test_no_actor_classes():
    """No class in ``timberjack_ray/`` or ``__ray_entry__.py`` becomes a
    Ray actor (decorated with, or passed to, ``ray.remote``), and no
    ``ShardPool`` is defined or used: per-key state runs as a fold inside
    the bucket exchange, never in actors a driver feeds.  Remote
    functions (tasks) are allowed."""
    from pathlib import Path

    def is_ray_remote(node) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        return isinstance(node, ast.Attribute) and node.attr == "remote" \
            and isinstance(node.value, ast.Name) and node.value.id == "ray"

    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "timberjack_ray").rglob("*.py")) \
        + [root / "__ray_entry__.py"]
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text())
        classes = {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)}
        for node in ast.walk(tree):
            where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ClassDef) \
                    and any(map(is_ray_remote, node.decorator_list)):
                offenders.append(f"{where} @ray.remote class {node.name}")
            elif isinstance(node, ast.Call) and is_ray_remote(node.func) \
                    and any(isinstance(a, ast.Name) and a.id in classes
                            for a in node.args):
                offenders.append(f"{where} ray.remote(<class>)")
            elif "ShardPool" in (getattr(node, "id", None),
                                 getattr(node, "name", None),
                                 getattr(node, "attr", None)):
                offenders.append(f"{where} ShardPool")
    assert not offenders, offenders
