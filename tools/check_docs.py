"""Documentation checks: links and repo paths resolve, examples run and call the API they name, events and metrics are listed.

Five passes over ``README.md`` and every ``docs/*.md`` (the keyword and
import passes also read every ``examples/*.py`` script), one over
``src/repro`` and one over the ``GET /metrics`` renderer:

1. **Links.** Every relative markdown link (``[text](path)`` or
   ``[text](path#anchor)``) must point at an existing file or directory,
   and an anchor must match a heading in the target file (GitHub-style
   slugs).  External links (``http(s)://``) are not fetched -- CI must
   not flake on the network.
2. **Paths.** Every repo-relative file path the prose or a fenced block
   names (``src/``, ``benchmarks/``, ``tests/``, ``tools/``,
   ``examples/``, ``perfbench/`` or ``docs/`` up to a ``.py``, ``.md``,
   ``.json``, ``.yml`` or ``.toml`` suffix) must be an existing file, so
   deleting a file also means updating the docs that name it.
3. **Doctests.** Fenced code blocks whose info string is ``python
   doctest`` are extracted and executed with :mod:`doctest` (equivalent
   to ``python -m doctest`` on a file holding the block).  Mark an
   example testable only when it is self-contained and cheap; plain
   ``python`` blocks are illustrative and stay unexecuted.
4. **Keywords.** Every fenced ``python`` block (a ``python doctest``
   block by its examples' source) and every example script is parsed,
   never run.  Each keyword it passes to a public ``repro`` callable --
   a name in the ``__all__`` of a package in :data:`PUBLIC_MODULES`,
   called by that name, plus any ``.add_model(...)`` -- must be a
   parameter of that callable (:func:`inspect.signature`), so an
   illustrative snippet or a walkthrough cannot keep a removed option.
   Callables that take ``**kwargs`` are skipped, except ``add_model``,
   whose extra keywords are checked against
   :func:`repro.engine.compile`, where they go.
5. **Imports.** Every ``from repro... import name`` in a fenced
   ``python`` block or an example script must name something the module
   has (an attribute or a submodule, as the import statement itself
   resolves it), so a deleted public name cannot survive in a snippet.
6. **Events.** Every event name handed to the structured logger under
   ``src/repro`` -- the first argument of ``get_logger()`` /
   ``_obs_logger()`` ``.info``/``.warning`` (or ``.debug``/``.error``),
   or an ``event=`` keyword to a helper that forwards it there -- is
   listed in the "Structured logs" table of ``docs/observability.md``,
   and every event that table lists is emitted somewhere.
7. **Metrics.** :func:`repro.obs.render_server_metrics` renders a
   synthetic ``GET /v1/stats`` body with every block present (a model
   with a replica, an autoscaler and a store ref; the gateway; the
   tracer).  Every family it renders (``# TYPE`` line) is listed in the
   "Metric families" table of ``docs/observability.md`` with the same
   type and label names, and every family that table lists is rendered.

Run from the repo root (CI job ``docs``)::

    PYTHONPATH=src python tools/check_docs.py

Exit code 0 on success; failures are listed one per line.  Importable
(``check_links`` / ``check_paths`` / ``check_doctests`` /
``check_keywords`` / ``check_imports`` / ``check_events`` /
``check_metrics``) so the test suite runs the same checks as CI (see
``tests/test_docs.py``).
"""

from __future__ import annotations

import ast
import doctest
import importlib
import inspect
import re
import sys
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The doc whose "Structured logs" and "Metric families" tables list every
#: lifecycle event and every ``/metrics`` family.
OBS_DOC = REPO_ROOT / "docs" / "observability.md"

#: ``[text](target)`` -- excluding images and in-page ``#`` / external links.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
#: Fenced block opened with ```<info> ... closed with ```
_FENCE = re.compile(r"^```([^\n`]*)\n(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: A repo-relative file path, e.g. ``src/repro/serve/server.py`` (not part of a longer path).
_REPO_PATH = re.compile(
    r"(?<![\w./-])((?:src|benchmarks|tests|tools|examples|perfbench|docs)/[\w./-]*\.(?:py|md|json|yml|toml))\b"
)
_EVENT_NAME = r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+"
#: An event name given to the structured logger, or to a helper's ``event=`` keyword.
_EMITTED_EVENT = re.compile(
    r"(?:\b(?:get_logger|_obs_logger)\(\)\s*\.\s*(?:debug|info|warning|error)\(\s*|\bevent=)"
    rf"[\"']({_EVENT_NAME})[\"']"
)


def doc_files() -> List[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def example_files() -> List[Path]:
    """The runnable walkthroughs: every ``examples/*.py`` script."""
    return sorted((REPO_ROOT / "examples").glob("*.py"))


def _label(path: Path) -> str:
    """``path`` relative to the repo root (as it is when outside the repo)."""
    return str(path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path)


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces to dashes, punctuation out."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\s-]", "", slug, flags=re.UNICODE)
    return re.sub(r"\s+", "-", slug)


def _anchors(path: Path) -> set:
    return {_github_slug(match) for match in _HEADING.findall(path.read_text(encoding="utf-8"))}


def check_links(files: List[Path] = None) -> List[str]:
    """Return a list of broken-link descriptions (empty = all good)."""
    errors = []
    for path in files or doc_files():
        text = path.read_text(encoding="utf-8")
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, anchor = target.partition("#")
            rel = path.parent / base if base else path
            if not rel.exists():
                errors.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
                continue
            if anchor and rel.suffix == ".md" and _github_slug(anchor) not in _anchors(rel):
                errors.append(f"{path.relative_to(REPO_ROOT)}: missing anchor -> {target}")
    return errors


def missing_paths(text: str) -> List[str]:
    """Repo-relative file paths named anywhere in ``text`` that do not exist."""
    return sorted({target for target in _REPO_PATH.findall(text) if not (REPO_ROOT / target).is_file()})


def check_paths(files: List[Path] = None) -> List[str]:
    """Return a list of dangling-path descriptions (empty = all good)."""
    errors = []
    for path in files or doc_files():
        for target in missing_paths(path.read_text(encoding="utf-8")):
            errors.append(f"{path.relative_to(REPO_ROOT)}: missing file -> {target}")
    return errors


def testable_blocks(files: List[Path] = None) -> List[Tuple[str, str]]:
    """(label, source) for every fenced block marked ``python doctest``."""
    blocks = []
    for path in files or doc_files():
        text = path.read_text(encoding="utf-8")
        for index, match in enumerate(_FENCE.finditer(text)):
            info = match.group(1).strip().lower().split()
            if info[:2] == ["python", "doctest"]:
                label = f"{path.relative_to(REPO_ROOT)}[block {index}]"
                blocks.append((label, match.group(2)))
    return blocks


def check_doctests(files: List[Path] = None) -> List[str]:
    """Run every testable block; return failure descriptions."""
    errors = []
    runner = doctest.DocTestRunner(verbose=False, optionflags=doctest.ELLIPSIS)
    parser = doctest.DocTestParser()
    blocks = testable_blocks(files)
    if not blocks:
        errors.append("no fenced examples marked `python doctest` found -- docs lost their tested examples")
        return errors
    for label, source in blocks:
        test = parser.get_doctest(source, {}, label, label, 0)
        result = runner.run(test, clear_globs=True)
        if result.failed:
            errors.append(f"{label}: {result.failed} of {result.attempted} doctest example(s) failed")
    return errors


#: Packages whose ``__all__`` names the public callables the keyword pass checks.
PUBLIC_MODULES = ("repro", "repro.serve", "repro.cluster", "repro.engine", "repro.gateway", "repro.store", "repro.obs")


def python_blocks(files: List[Path] = None) -> List[Tuple[str, str]]:
    """(label, source) for every fenced ``python`` block and ``.py`` script (default: docs and examples).

    A doctest block yields its examples' source; a script is one block.
    """
    blocks = []
    parser = doctest.DocTestParser()
    for path in files or doc_files() + example_files():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".py":
            blocks.append((_label(path), text))
            continue
        for index, match in enumerate(_FENCE.finditer(text)):
            info = match.group(1).strip().lower().split()
            if info[:1] != ["python"]:
                continue
            source = match.group(2)
            if info[1:2] == ["doctest"]:
                source = "".join(example.source for example in parser.get_examples(source))
            blocks.append((f"{path.relative_to(REPO_ROOT)}[block {index}]", source))
    return blocks


def _keywords(obj) -> Optional[FrozenSet[str]]:
    """Keyword names ``obj`` takes; ``None`` (unchecked) when it takes ``**kwargs``."""
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # no introspectable signature
        return None
    if any(param.kind is param.VAR_KEYWORD for param in params):
        return None
    return frozenset(param.name for param in params if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY))


def public_keywords() -> Dict[str, Optional[FrozenSet[str]]]:
    """``{name: keywords it takes}`` for every public callable (``None``: takes ``**kwargs``, unchecked)."""
    table: Dict[str, Optional[FrozenSet[str]]] = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and name not in table:
                table[name] = _keywords(obj)
    from repro.serve import InferenceServer

    # add_model hands its **session_kwargs to compile(), so it takes compile's keywords too.
    params = inspect.signature(InferenceServer.add_model).parameters.values()
    table["add_model"] = table["compile"] | {param.name for param in params if param.kind is not param.VAR_KEYWORD}
    return table


def _parse_block(source: str) -> ast.AST:
    """The block's syntax tree; ``SyntaxError`` when it does not parse (top-level ``await`` is allowed)."""
    return compile(source, "<block>", "exec", flags=ast.PyCF_ONLY_AST | ast.PyCF_ALLOW_TOP_LEVEL_AWAIT)


def keyword_uses(source: str, public: Dict[str, Optional[FrozenSet[str]]]) -> List[Tuple[str, str, int]]:
    """``(callable, keyword, line)`` for each keyword ``source`` passes to a checked public callable.

    Raises ``SyntaxError`` when ``source`` does not parse (top-level
    ``await`` and ``async with`` are allowed, as in a notebook).
    """
    tree = _parse_block(source)
    uses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, name = node.func, None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "add_model":
            name = func.attr
        if public.get(name) is not None:
            uses.extend((name, keyword.arg, node.lineno) for keyword in node.keywords if keyword.arg is not None)
    return uses


def check_keywords(files: List[Path] = None) -> List[str]:
    """Return keywords the python blocks and scripts pass to a public callable that does not take them."""
    public = public_keywords()
    errors, checked = [], 0
    for label, source in python_blocks(files):
        try:
            uses = keyword_uses(source, public)
        except SyntaxError as exc:
            errors.append(f"{label}: python block does not parse (line {exc.lineno}: {exc.msg})")
            continue
        checked += len(uses)
        for name, keyword, line in uses:
            if keyword not in public[name]:
                errors.append(f"{label}: `{name}` takes no keyword `{keyword}` (line {line} of the block)")
    if not checked:
        errors.append("no keyword passed to a public repro callable in any python block -- the keyword pass saw nothing")
    return errors


def repro_imports(source: str) -> List[Tuple[str, str, int]]:
    """``(module, name, line)`` for each name a ``from repro... import`` statement in ``source`` imports.

    Raises ``SyntaxError`` when ``source`` does not parse.
    """
    imports = []
    for node in ast.walk(_parse_block(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "repro":
            imports.extend((node.module, alias.name, node.lineno) for alias in node.names if alias.name != "*")
    return imports


def importable(module_name: str, name: str) -> bool:
    """Whether ``from module_name import name`` succeeds: an attribute, else a submodule."""
    try:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def check_imports(files: List[Path] = None) -> List[str]:
    """Return ``from repro... import name`` lines in the python blocks and scripts whose module has no such name."""
    errors, checked = [], 0
    for label, source in python_blocks(files):
        try:
            imports = repro_imports(source)
        except SyntaxError:
            continue  # the keyword pass reports a block that does not parse
        checked += len(imports)
        for module, name, line in imports:
            if not importable(module, name):
                errors.append(f"{label}: `from {module} import {name}`: no such name (line {line} of the block)")
    if not checked:
        errors.append("no `from repro... import` in any python block -- the import pass saw nothing")
    return errors


def events_in_source(text: str) -> set:
    """Event names ``text`` hands to the structured logger."""
    return set(_EMITTED_EVENT.findall(text))


def _table_rows(text: str, heading: str) -> List[List[str]]:
    """The cells of each table row in the ``## heading`` section of ``text``."""
    _, _, section = text.partition(f"## {heading}")
    section = section.split("\n## ", 1)[0]
    return [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("|")]


def events_in_table(text: str) -> set:
    """Backticked event names in the first column of the "Structured logs" table in ``text``."""
    rows = _table_rows(text, "Structured logs")
    return {name for cells in rows for name in re.findall(rf"`({_EVENT_NAME})`", cells[0])}


def check_events() -> List[str]:
    """Return events emitted but not documented, or documented but never emitted."""
    doc = OBS_DOC.relative_to(REPO_ROOT)
    documented = events_in_table(OBS_DOC.read_text(encoding="utf-8"))
    emitted = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        emitted |= events_in_source(path.read_text(encoding="utf-8"))
    if not documented or not emitted:
        return [f"{doc}: no structured-log events found -- the event pass lost its table or its call sites"]
    errors = []
    for name in sorted(emitted - documented):
        errors.append(f"{doc}: emitted event `{name}` is not in the Structured logs table")
    for name in sorted(documented - emitted):
        errors.append(f"{doc}: Structured logs event `{name}` is never emitted under src/repro")
    return errors


def metrics_in_table(text: str) -> dict:
    """``{family: (type, label names)}`` from the "Metric families" table in ``text``."""
    families = {}
    for cells in _table_rows(text, "Metric families"):
        names = re.findall(r"`(repro_\w+)`", cells[0])
        if names:
            families[names[0]] = (cells[1].strip(), frozenset(re.findall(r"`(\w+)`", cells[2])))
    return families


def metrics_in_exposition(text: str) -> dict:
    """``{family: (type, label names)}`` from Prometheus exposition ``text``."""
    lines = text.splitlines()
    types = dict(line.split()[2:4] for line in lines if line.startswith("# TYPE "))
    labels = {name: set() for name in types}
    for line in lines:
        if line.startswith("#"):
            continue
        name, _, rest = line.rpartition(" ")[0].partition("{")
        family = name if name in types else re.sub(r"_(?:bucket|sum|count)$", "", name)
        labels[family].update(re.findall(r'(\w+)="', rest))
    return {name: (types[name], frozenset(labels[name])) for name in types}


def synthetic_stats_body() -> dict:
    """A ``GET /v1/stats`` body with every block the renderer reads."""
    from repro.gateway.limits import GatewayLimits
    from repro.obs import Tracer
    from repro.serve.metrics import BatcherStats
    from repro.store.ref import StoreRef

    stats = BatcherStats()
    stats.record_batch(1, compute_s=0.002)
    stats.record_request(queue_wait_s=0.001, latency_s=0.003)
    stats.replicas = [
        {"replica": 0, "alive": True, "in_flight": 0, "ewma_latency_ms": 2.0, "threads": 1,
         "dispatched": 1, "failures": 0, "restarts": 0, "draining": False}
    ]
    stats.autoscaler = {"fleet": 1, "alive": 1, "scale_ups": 0, "scale_downs": 0, "holds": 1,
                        "nan_holds": 0, "errors": 0}
    stats.store = StoreRef("local", "store", "digits", 1, "0" * 64).describe()
    return {"models": {"digits": stats.as_dict()}, "gateway": GatewayLimits().snapshot(), "obs": Tracer().snapshot()}


def check_metrics() -> List[str]:
    """Return ``/metrics`` families rendered but not documented, documented but never rendered, or documented wrong."""
    from repro.obs import render_server_metrics

    doc = OBS_DOC.relative_to(REPO_ROOT)
    documented = metrics_in_table(OBS_DOC.read_text(encoding="utf-8"))
    rendered = metrics_in_exposition(render_server_metrics(synthetic_stats_body()))
    if not documented:
        return [f"{doc}: no Metric families table found"]
    errors = []
    for name in sorted(rendered.keys() - documented.keys()):
        errors.append(f"{doc}: /metrics family `{name}` is not in the Metric families table")
    for name in sorted(documented.keys() - rendered.keys()):
        errors.append(f"{doc}: Metric families lists `{name}`, which /metrics never renders")
    for name in sorted(documented.keys() & rendered.keys()):
        if documented[name] != rendered[name]:
            errors.append(
                f"{doc}: `{name}` is listed as {documented[name][0]} {sorted(documented[name][1])} "
                f"but renders as {rendered[name][0]} {sorted(rendered[name][1])}"
            )
    return errors


def main() -> int:
    # The docs' examples import repro.*; make `src` importable when the
    # caller forgot PYTHONPATH.
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    files, examples = doc_files(), example_files()
    errors = (
        check_links(files)
        + check_paths(files)
        + check_doctests(files)
        + check_keywords(files + examples)
        + check_imports(files + examples)
        + check_events()
        + check_metrics()
    )
    for error in errors:
        print(f"FAIL: {error}")
    print(
        f"checked {len(files)} doc file(s), {len(examples)} example script(s), "
        f"{len(testable_blocks(files))} testable example block(s): "
        + ("FAILED" if errors else "ok")
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
