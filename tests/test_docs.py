"""The docs stay honest: links and repo paths resolve, tested examples run,
python snippets and example scripts pass only keywords the public API
takes and import only names the package has, the
structured-log event table matches the events the code emits, and the
metric families table matches what ``GET /metrics`` renders.

Runs the same checks as the CI ``docs`` job (``tools/check_docs.py``) so
a broken doc link or a stale fenced example fails the tier-1 suite
locally, not just on GitHub.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_docs_tree_exists():
    for name in ("architecture.md", "serving.md", "benchmarks.md"):
        assert (REPO_ROOT / "docs" / name).exists(), f"docs/{name} is missing"


def test_internal_links_resolve():
    assert check_docs.check_links() == []


def test_repo_paths_resolve():
    assert check_docs.check_paths() == []


def test_path_check_names_a_missing_file_in_prose_and_fences():
    snippet = (
        "See `src/repro/serve/server.py` and `benchmarks/bench_gone.py`.\n\n"
        "```bash\nPYTHONPATH=src python tools/no_such_tool.py --all\n```\n"
        "Not repo paths: vendor/src/x.py, ../tools/x.py, benchmarks/bench_<name>.py, tests/test_{a,b}.py.\n"
    )
    assert check_docs.missing_paths(snippet) == ["benchmarks/bench_gone.py", "tools/no_such_tool.py"]


def test_fenced_doctest_examples_pass():
    assert check_docs.check_doctests() == []


def test_python_blocks_pass_only_keywords_the_public_api_takes():
    assert check_docs.check_keywords() == []


def test_keyword_pass_reads_public_names_and_add_model_and_skips_kwargs_callables():
    source = (
        "from repro.serve import InferenceServer\n"
        "server = InferenceServer(max_batch=8, max_wait_ms=2.0)\n"
        "server.add_model('digits', model, dtype='complex64', policy=None)\n"
        "make_policy('fixed', anything=1)\n"
        "np.stack(rows, axis=0)\n"
        "session = compile(model, optimize='none')\n"
        "async with Gateway(server, port=0) as gateway:\n"
        "    await gateway.serve_forever()\n"
    )
    public = check_docs.public_keywords()
    assert public["make_policy"] is None, "a callable taking **kwargs is unchecked"
    assert {"dtype", "policy", "max_batch"} <= public["add_model"], "add_model forwards its extras to compile"
    uses = check_docs.keyword_uses(source, public)
    assert uses == [
        ("InferenceServer", "max_batch", 2),
        ("InferenceServer", "max_wait_ms", 2),
        ("add_model", "dtype", 3),
        ("add_model", "policy", 3),
        ("compile", "optimize", 6),
        ("Gateway", "port", 7),
    ]
    assert [use for use in uses if use[1] not in public[use[0]]] == [("InferenceServer", "max_wait_ms", 2)]


def test_keyword_pass_reads_example_scripts_whole(tmp_path):
    """An example script is one block: a removed server option in it fails the pass."""
    script = tmp_path / "fleet_demo.py"
    script.write_text(
        "from repro.serve import InferenceServer\n"
        "\n"
        "server = InferenceServer(max_batch=8, replicas=2)\n"
        "server.add_model('digits', model, router='power_of_two_choices')\n"
    )
    assert check_docs.python_blocks([script]) == [(str(script), script.read_text())]
    assert check_docs.check_keywords([script]) == [
        f"{script}: `InferenceServer` takes no keyword `replicas` (line 3 of the block)",
        f"{script}: `add_model` takes no keyword `router` (line 4 of the block)",
    ]
    assert check_docs.check_imports([script]) == []
    assert "examples/serving_demo.py" in {label for label, _ in check_docs.python_blocks()}


def test_python_blocks_import_only_names_the_package_has():
    assert check_docs.check_imports() == []


def test_import_pass_names_a_removed_public_name():
    source = (
        "from repro.serve import InferenceServer, SessionRegistry\n"
        "from repro import DONN\n"
        "from repro.cluster import autoscale\n"
        "from repro.gone import anything\n"
        "from numpy import not_checked\n"
    )
    imports = check_docs.repro_imports(source)
    assert imports == [
        ("repro.serve", "InferenceServer", 1),
        ("repro.serve", "SessionRegistry", 1),
        ("repro", "DONN", 2),
        ("repro.cluster", "autoscale", 3),
        ("repro.gone", "anything", 4),
    ]
    missing = [use for use in imports if not check_docs.importable(use[0], use[1])]
    assert missing == [("repro.serve", "SessionRegistry", 1), ("repro.gone", "anything", 4)]


def test_structured_log_events_match_the_docs_table():
    assert check_docs.check_events() == []


def test_event_pass_reads_logger_calls_event_keywords_and_the_table_column():
    source = (
        '_obs_logger().warning(\n    "cluster.drain_timeout", group=name)\n'
        "get_logger().info('serve.model_swapped')\n"
        'self._drained(replica, timeout, event="cluster.swap_drain_timeout")\n'
        'logger.info("stdlib.message")\nget_logger().records("cluster.replica_restarted")\n'
    )
    assert check_docs.events_in_source(source) == {
        "cluster.drain_timeout",
        "serve.model_swapped",
        "cluster.swap_drain_timeout",
    }
    table = (
        "## Structured logs\n\n| Event | Emitted when |\n| --- | --- |\n"
        "| `a.one` / `a.two` | prose naming `not.listed` |\n\n## Tuning\n\n| `b.later` | x |\n"
    )
    assert check_docs.events_in_table(table) == {"a.one", "a.two"}


def test_metric_families_match_the_docs_table():
    assert check_docs.check_metrics() == []


def test_metric_pass_reads_types_labels_and_the_table_columns():
    exposition = (
        "# HELP h_ms h\n# TYPE h_ms histogram\n"
        'h_ms_bucket{model="m",le="+Inf"} 1\nh_ms_sum{model="m"} 2.0\nh_ms_count{model="m"} 1\n'
        "# HELP g g\n# TYPE g gauge\n"
    )
    assert check_docs.metrics_in_exposition(exposition) == {
        "h_ms": ("histogram", frozenset({"model", "le"})),
        "g": ("gauge", frozenset()),
    }
    table = (
        "## Metric families\n\n| Family | Type | Labels | Field |\n| --- | --- | --- | --- |\n"
        "| `repro_x_total` | counter | `model`, `replica` | `models.<model>.x` |\n"
        "| `repro_y` | gauge | — | `gateway.y` |\n\n## Structured logs\n\n| `repro_z` | gauge | — | z |\n"
    )
    assert check_docs.metrics_in_table(table) == {
        "repro_x_total": ("counter", frozenset({"model", "replica"})),
        "repro_y": ("gauge", frozenset()),
    }


def test_readme_links_the_docs_tree():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for target in ("docs/architecture.md", "docs/serving.md", "docs/benchmarks.md"):
        assert target in readme, f"README does not link {target}"
