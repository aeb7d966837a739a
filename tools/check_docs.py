"""Documentation consistency checks, run by CI and tier-1.

Three independent checks over ``README.md`` and ``docs/*.md``:

1. **Links** — every relative markdown link must resolve to an existing
   file, and every ``#fragment`` (on a relative link or a bare
   ``#anchor``) must match a heading slug in the target document.
   External (``http(s)://``, ``mailto:``) links are not fetched.
2. **Metrics coverage** — every metric name the service exports
   (``inc`` / ``set_gauge`` / ``observe`` call sites in the service
   sources) must be documented in ``docs/METRICS.md`` **and** carry a
   registry ``describe()`` call — an emitted series without a HELP
   line fails the build, not just one missing from the docs.  Call
   sites come from :mod:`repro.analysis.metrics_ast` — the same
   visitor the ``metric-discipline`` lint rule uses, so the docs check
   and the linter can never disagree about what the code emits.
3. **CLI knobs** — every ``--flag`` in the "Tuning knobs" table of
   ``docs/SERVING.md`` must be an option that
   ``repro.service.__main__.build_parser()`` registers, read from its
   ``add_argument`` calls in the source (so a deleted flag cannot
   linger in the runbook).

Exit status 0 when clean; 1 with one line per problem otherwise.

Usage::

    python tools/check_docs.py [--root PATH]
"""
from __future__ import annotations

import argparse
import ast
import importlib.util
import pathlib
import re
import sys

DOC_GLOBS = ("README.md", "docs/*.md")
METRIC_SOURCES = (
    "src/repro/service/app.py",
    "src/repro/service/metrics.py",
    "src/repro/service/fleet.py",
)
METRICS_DOC = "docs/METRICS.md"
SERVING_DOC = "docs/SERVING.md"
CLI_SOURCE = "src/repro/service/__main__.py"
KNOB_HEADING = "Tuning knobs"

_FENCE = re.compile(r"^(```|~~~)")
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*)$")
_EXTERNAL = re.compile(r"^[a-z][a-z0-9+.-]*:")  # http:, https:, mailto:, ...
_FLAG = re.compile(r"`(--[a-z0-9][a-z0-9-]*)")

#: The shared visitor, relative to this script's own repo (not --root:
#: the extraction logic belongs to the checker, the tree under test
#: only supplies sources).
METRICS_AST_PATH = (pathlib.Path(__file__).resolve().parent.parent
                    / "src" / "repro" / "analysis" / "metrics_ast.py")

_metrics_ast_module = None


def _load_metrics_ast():
    """Load the shared metric-call visitor straight from its file.

    A plain ``import repro.analysis`` would drag in ``repro`` (and its
    third-party dependencies); loading by path keeps this script
    runnable in the stdlib-only CI docs job.  ``metrics_ast`` is kept
    free of intra-package imports for exactly this reason.
    """
    global _metrics_ast_module
    if _metrics_ast_module is not None:
        return _metrics_ast_module
    path = METRICS_AST_PATH
    spec = importlib.util.spec_from_file_location("_repro_metrics_ast", path)
    if spec is None or spec.loader is None:  # pragma: no cover
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    # dataclass decorators resolve their module via sys.modules, so the
    # module must be registered before executing its body.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    _metrics_ast_module = module
    return module


def _strip_fences(text: str) -> list[str]:
    """Markdown lines with fenced code blocks blanked out."""
    lines = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else line)
    return lines


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code keeps its text
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links keep label
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def _anchors(path: pathlib.Path) -> set[str]:
    anchors: set[str] = set()
    for line in _strip_fences(path.read_text(encoding="utf-8")):
        match = _HEADING.match(line)
        if match:
            anchors.add(_slugify(match.group(2)))
    return anchors


def check_links(root: pathlib.Path, docs: list[pathlib.Path]) -> list[str]:
    problems = []
    anchor_cache: dict[pathlib.Path, set[str]] = {}
    for doc in docs:
        for lineno, line in enumerate(
                _strip_fences(doc.read_text(encoding="utf-8")), start=1):
            for match in _LINK.finditer(line):
                target = match.group(1)
                if _EXTERNAL.match(target):
                    continue
                where = f"{doc.relative_to(root)}:{lineno}"
                path_part, _, fragment = target.partition("#")
                dest = doc if not path_part else (
                    doc.parent / path_part).resolve()
                if not dest.is_file():
                    problems.append(f"{where}: dead link -> {target}")
                    continue
                if fragment:
                    if dest not in anchor_cache:
                        anchor_cache[dest] = _anchors(dest)
                    if fragment not in anchor_cache[dest]:
                        problems.append(
                            f"{where}: dead anchor -> {target}"
                            f" (no heading slug '{fragment}')")
    return problems


def exported_metrics(root: pathlib.Path) -> tuple[set[str], set[str]]:
    """``(emitted, described)`` metric names across the service sources.

    Kept separate so an emitted-but-never-described series is its own
    failure: a name can reach METRICS.md while its exposition still
    lacks the ``# HELP`` line operators grep for.
    """
    metrics_ast = _load_metrics_ast()
    emitted: set[str] = set()
    described: set[str] = set()
    for source in METRIC_SOURCES:
        path = root / source
        if path.is_file():
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            module_emitted, module_described = \
                metrics_ast.emitted_and_described(tree)
            emitted.update(module_emitted)
            described.update(module_described)
    return emitted, described


def check_metrics(root: pathlib.Path) -> list[str]:
    doc = root / METRICS_DOC
    if not doc.is_file():
        return [f"{METRICS_DOC}: missing (metrics reference is required)"]
    documented = set(re.findall(r"`([a-z0-9_]+)`", doc.read_text(encoding="utf-8")))
    emitted, described = exported_metrics(root)
    problems = []
    for name in sorted(emitted | described):
        if name not in documented:
            problems.append(
                f"{METRICS_DOC}: exported metric `{name}` is undocumented")
    for name in sorted(emitted - described):
        problems.append(
            f"metrics: series `{name}` is emitted but never describe()d "
            f"(no # HELP line in the exposition)")
    return problems


def cli_options(root: pathlib.Path) -> set[str]:
    """``--`` option strings ``build_parser()`` passes to
    ``add_argument`` (parsed, not imported: this script stays
    stdlib-only)."""
    path = root / CLI_SOURCE
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    options: set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef)
                and node.name == "build_parser"):
            continue
        for call in ast.walk(node):
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "add_argument"):
                options.update(
                    arg.value for arg in call.args
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--"))
    return options


def check_knobs(root: pathlib.Path) -> list[str]:
    doc = root / SERVING_DOC
    if not doc.is_file():
        return []
    if not (root / CLI_SOURCE).is_file():
        return [f"{CLI_SOURCE}: missing (the knob table names its flags)"]
    known = cli_options(root)
    problems = []
    in_table = found = False
    for lineno, line in enumerate(
            _strip_fences(doc.read_text(encoding="utf-8")), start=1):
        heading = _HEADING.match(line)
        if heading:
            in_table = heading.group(2).strip() == KNOB_HEADING
            found = found or in_table
            continue
        if not (in_table and line.lstrip().startswith("|")):
            continue
        for flag in _FLAG.findall(line):
            if flag not in known:
                problems.append(
                    f"{SERVING_DOC}:{lineno}: knob `{flag}` is not an "
                    f"option of build_parser() in {CLI_SOURCE}")
    if not found:
        problems.append(f"{SERVING_DOC}: no '{KNOB_HEADING}' section")
    return problems


def run(root: pathlib.Path) -> list[str]:
    docs = sorted(p for pattern in DOC_GLOBS for p in root.glob(pattern))
    if not docs:
        return [f"no documents matched {DOC_GLOBS} under {root}"]
    return check_links(root, docs) + check_metrics(root) + check_knobs(root)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: this repo)")
    args = parser.parse_args(argv)
    problems = run(args.root.resolve())
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
