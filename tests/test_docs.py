"""Tier-1 wrapper around the docs consistency checker.

Keeps ``docs/`` honest on every test run: no dead relative links or
anchors in README/docs, every exported ``/metrics`` series documented
in ``docs/METRICS.md``, and every flag in the ``docs/SERVING.md`` knob
table accepted by the service CLI. The same checker runs standalone in
the CI docs job (``python tools/check_docs.py``).
"""
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_docs_have_no_dead_links_or_anchors():
    docs = sorted(p for pattern in check_docs.DOC_GLOBS
                  for p in REPO_ROOT.glob(pattern))
    assert docs, "README.md / docs/*.md should exist"
    assert check_docs.check_links(REPO_ROOT, docs) == []


def test_every_exported_metric_is_documented():
    emitted, described = check_docs.exported_metrics(REPO_ROOT)
    # Guard against the extraction regex rotting silently: the service
    # exports a known-stable core of series.
    assert {"requests_total", "request_seconds",
            "solve_queue_depth", "solve_inflight_rows"} <= emitted
    # every emitted series must carry a describe() (# HELP) call
    assert emitted <= described
    assert check_docs.check_metrics(REPO_ROOT) == []


def test_checker_cli_passes_on_this_repo():
    assert check_docs.main(["--root", str(REPO_ROOT)]) == 0


def _metrics_fixture(tmp_path, source: str) -> pathlib.Path:
    """A minimal repo tree whose only metric source is ``source``."""
    (tmp_path / "README.md").write_text("# Demo\n", encoding="utf-8")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "METRICS.md").write_text(
        "# Metrics\n\n`ghost_total` is documented here.\n",
        encoding="utf-8")
    app = tmp_path / "src" / "repro" / "service" / "app.py"
    app.parent.mkdir(parents=True)
    app.write_text(source, encoding="utf-8")
    return tmp_path


def test_emitted_but_undescribed_series_fails(tmp_path):
    root = _metrics_fixture(
        tmp_path, 'metrics.inc("ghost_total", endpoint="/x")\n')
    problems = check_docs.check_metrics(root)
    assert any("emitted but never describe()d" in p for p in problems)
    # documented in METRICS.md is not enough -- the HELP line is separate
    assert not any("undocumented" in p for p in problems)


def test_described_and_documented_series_passes(tmp_path):
    root = _metrics_fixture(
        tmp_path,
        'metrics.describe("ghost_total", "Ghosts seen.")\n'
        'metrics.inc("ghost_total", endpoint="/x")\n')
    assert check_docs.check_metrics(root) == []


def _knobs_fixture(tmp_path, *flags: str) -> pathlib.Path:
    """A tree whose SERVING.md knob table names ``flags`` and whose CLI
    registers only ``--queue-size``."""
    docs = tmp_path / "docs"
    docs.mkdir()
    rows = "".join(f"| `{flag}` | 1 | x | y |\n" for flag in flags)
    (docs / "SERVING.md").write_text(
        "# Serving\n\n## Tuning knobs\n\n"
        "| Knob | Default | Applies to | Effect |\n"
        "| --- | --- | --- | --- |\n" + rows
        + "\n## Later\n\n`--not-a-knob` outside the table is ignored.\n",
        encoding="utf-8")
    cli = tmp_path / "src" / "repro" / "service" / "__main__.py"
    cli.parent.mkdir(parents=True)
    cli.write_text(
        "def build_parser():\n"
        "    parser.add_argument('--queue-size', type=int)\n",
        encoding="utf-8")
    return tmp_path


def test_knob_table_naming_an_unknown_flag_fails(tmp_path):
    root = _knobs_fixture(tmp_path, "--queue-size", "--batch-size")
    problems = check_docs.check_knobs(root)
    # the known flag and the flag outside the table raise nothing
    assert len(problems) == 1
    assert "`--batch-size`" in problems[0]
