"""Meta tests: the documentation's promises hold against the tree."""

import re
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent

#: the prose pages whose claims about the tree are checked below
DOC_PAGES = [ROOT / name for name in ("README.md", "DESIGN.md",
                                      "EXPERIMENTS.md")] \
    + sorted((ROOT / "docs").rglob("*.md")) \
    + [ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]


def test_design_md_experiment_benches_exist():
    """Every bench file DESIGN.md's experiment index references
    exists."""
    text = (ROOT / "DESIGN.md").read_text()
    referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
    assert referenced, "DESIGN.md lost its experiment index?"
    for name in referenced:
        assert (ROOT / "benchmarks" / name).is_file(), name


def test_experiments_md_covers_all_benches():
    """Every benchmark file is discussed in EXPERIMENTS.md."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for bench in sorted((ROOT / "benchmarks").glob("test_e*.py")):
        assert bench.name in text, f"{bench.name} undocumented"


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for name in re.findall(r"examples/(\w+)\.py", text):
        assert (ROOT / "examples" / f"{name}.py").is_file(), name


def test_documented_scripts_exist():
    """Every benchmarks/ or tools/ script a doc page names exists."""
    for page in DOC_PAGES:
        for name in re.findall(r"\b((?:benchmarks|tools)/[\w/]+\.py)\b",
                               page.read_text()):
            assert (ROOT / name).is_file(), f"{page.name} names {name}"


def test_no_page_cites_a_bench_json_artifact():
    """The per-script BENCH_*.json artifacts are gone; figures are
    cited by suite metric or E-table."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    for page in DOC_PAGES + sources:
        found = re.findall(r"BENCH_\w+\.json", page.read_text())
        assert not found, f"{page.relative_to(ROOT)} cites {found}"


def test_no_page_mentions_the_deleted_job_service():
    """The job service and the shared template cache only it used are
    gone; no page or source file may still describe them."""
    stale = re.compile(r"repro serve|JobService|ServeClient|"
                       r"stats --service|shared_template")
    sources = sorted((ROOT / "src").rglob("*.py"))
    for page in DOC_PAGES + sources:
        found = stale.findall(page.read_text())
        assert not found, f"{page.relative_to(ROOT)} mentions {found}"


def test_e1_table_has_event_backend_and_behavioural_rows(
        tmp_path, monkeypatch):
    """The E1 experiment is the one producer of the paper's table:
    all four configurations and both speed-up lines, at smoke scale."""
    from benchmarks import common, test_e1_cosim_vs_rtl as e1
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
    monkeypatch.setattr(e1, "CELLS", common.scaled(160))
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    e1.write_e1_table()
    table = (tmp_path / "e1_cosim_vs_rtl.txt").read_text()
    assert "(40 cells" in table
    for row in ("co-simulation (CASTANET)", "pure RTL (compiled)",
                "pure RTL (event backend)", "behavioural twin",
                "speed-up vs compiled RTL", "speed-up vs event RTL"):
        assert row in table, row


def test_all_subpackages_have_docstrings_and_all():
    import importlib
    for name in ("netsim", "traffic", "atm", "hdl", "rtl", "board",
                 "core", "analysis"):
        module = importlib.import_module(f"repro.{name}")
        assert module.__doc__, f"repro.{name} lacks a docstring"
        assert getattr(module, "__all__", None), \
            f"repro.{name} lacks __all__"


def test_public_api_objects_are_documented():
    """Every exported class/function carries a docstring."""
    import importlib
    import inspect
    undocumented = []
    for name in ("netsim", "traffic", "atm", "hdl", "rtl", "board",
                 "core", "analysis"):
        module = importlib.import_module(f"repro.{name}")
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"repro.{name}.{symbol}")
    assert not undocumented, undocumented
