"""Meta tests: the documentation's promises hold against the tree."""

import ast
import importlib
import re
import textwrap
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
                 "core", "analysis", "obs", "shard", "sweep", "behav"):
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
                 "core", "analysis", "obs", "shard", "sweep", "behav"):
        module = importlib.import_module(f"repro.{name}")
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"repro.{name}.{symbol}")
    assert not undocumented, undocumented


def test_records_are_captured_by_the_record_bus_monitor_only():
    """``repro.rtl.RecordBusMonitor`` is the one capture of the
    accounting unit's record bus; a generator that reads ``rec_valid``
    is a second, hand-polled copy of it.  The benchmark suite keeps its
    own monitor and is exempt."""
    suite = ROOT / "benchmarks" / "suite"
    offenders = []
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if suite in path.parents:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                inner = list(ast.walk(func))
                if any(isinstance(node, (ast.Yield, ast.YieldFrom))
                       for node in inner) and any(
                           isinstance(node, ast.Attribute)
                           and node.attr == "rec_valid" for node in inner):
                    offenders.append(
                        f"{path.relative_to(ROOT)}:{func.lineno}")
    assert offenders == [], (
        f"read records through DutHandle.records or RecordBusMonitor: "
        f"{offenders}")



def _public_names(tree):
    """Top-level names a module defines without a leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _module_refs(path, text):
    """Dotted module paths *path* imports (relative imports resolved)
    or spells out, e.g. ``python -m repro.x`` in a string, plus the
    package a file under ``src/`` belongs to."""
    package = []
    refs = set(re.findall(r"repro(?:\.\w+)+", text))
    if ROOT / "src" in path.parents:
        package = list(path.relative_to(ROOT / "src").parent.parts)
        refs.add(".".join(package))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + [node.module] if node.module
                              else base)
            refs.add(module)
            refs.update(f"{module}.{alias.name}" for alias in node.names)
    return refs


def test_every_src_module_is_reached_outside_tests():
    """Every module under ``src/repro`` serves a path a user runs: its
    dotted path, or one of its public names, appears in another module
    of ``src/`` (package ``__init__`` re-exports do not count), in
    ``benchmarks/``, ``examples/`` or ``tools/``.  A name counts only in
    a file that can see it — one of the module's own package, or one
    that imports from that package — so a local variable that happens
    to share the name does not.  A module reached only from unreached
    modules is unreached too.  This is a static census of the source
    text, not a profile of a run."""
    allowed = {"repro.__main__"}                 # the ``python -m`` entry
    users = {}
    for top in ("src", "benchmarks", "examples", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            users[path] = (set(re.findall(r"\w+", text)),
                           _module_refs(path, text))
    modules = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name != "__init__.py":
            dotted = ".".join(path.relative_to(ROOT / "src")
                              .with_suffix("").parts)
            modules[path] = (dotted, _public_names(
                ast.parse(path.read_text(encoding="utf-8"))))

    def reaches(user, dotted, names):
        words, refs = users[user]
        package = dotted.rpartition(".")[0]
        return any(ref == dotted or ref.startswith(dotted + ".")
                   for ref in refs) or (
            bool(names & words)
            and any(ref == package or ref.startswith(package + ".")
                    for ref in refs))

    unreached = set()
    while True:
        found = {path for path, (dotted, names) in modules.items()
                 if path not in unreached and not any(
                     reaches(user, dotted, names) for user in users
                     if user != path and user not in unreached)}
        if not found:
            break
        unreached |= found
    offenders = sorted(modules[path][0] for path in unreached
                       if modules[path][0] not in allowed)
    assert offenders == [], (
        "reached only by tests — delete them or put them on a path a "
        f"user runs: {offenders}")


#: public names that only tests reach, each deferred to the ROADMAP item
#: that decides whether it joins a user path or goes.  The name-level
#: guard below also fails when an entry is reached or deleted, so this
#: list can only shrink.
PENDING = {
    "repro.rtl.hec_circuit.HecGenerator": "item 24 (HEC on E1's line)",
    "repro.rtl.hec_circuit.HecChecker": "item 24 (HEC on E1's line)",
    "repro.rtl.registers.Register": "item 22 (rtl/behav slice)",
    "repro.rtl.switch_fabric.AtmSwitchRtl.remove_connection":
        "item 22 (rtl/behav slice)",
    "repro.behav.twins.AtmSwitchBehav.remove_connection":
        "item 22 (rtl/behav slice)",
    "repro.rtl.policer.UpcPolicerRtl.remove_contract":
        "item 22 (rtl/behav slice)",
    "repro.behav.twins.UpcPolicerBehav.remove_contract":
        "item 22 (rtl/behav slice)",
    "repro.rtl.accounting_unit.AccountingUnitRtl.interval_cells":
        "item 22 (rtl/behav slice)",
    "repro.behav.twins.AccountingUnitBehav.interval_cells":
        "item 22 (rtl/behav slice)",
    "repro.rtl.accounting_unit.AccountingUnitRtl.output_backlog_words":
        "item 22 (rtl/behav slice)",
    "repro.board.board.HardwareTestBoard.lane_speed": "item 8 (board)",
    "repro.board.board.HardwareTestBoard.set_lane_speed": "item 8 (board)",
    "repro.board.pinmap.ConfigurationDataSet.from_dict": "item 8 (board)",
    "repro.board.pinmap.ConfigurationDataSet.unpack_ctrlports":
        "item 8 (board)",
    "repro.core.environment.CoVerificationEnvironment.add_board_interface":
        "item 8 (board)",
    "repro.shard.codec.frame_header": "items 4/5 (shard)",
    "repro.shard.codec.PackedOps.ops": "items 4/5 (shard)",
    "repro.sweep.runner.run_sweep": "item 5 (one supervisor)",
    "repro.sweep.spec.RunSpec.from_dict": "item 5 (one supervisor)",
    "repro.sweep.aggregate.strip_volatile": "item 25 (one run record)",
}

#: modules whose definitions the name-level guard does not check: the
#: test oracles and the ``python -m`` entry
NAME_GUARD_EXEMPT = {"repro.reference", "repro.__main__"}


def _public_definitions(tree):
    """``(qualified name, node)`` for each public top-level function or
    class of a module and each public method of its top-level
    classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs + (ast.ClassDef,)) \
                and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) \
                            and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def _identifier_lines(tree):
    """``(identifier, line)`` for every name the code spells as an
    identifier: ``Name.id``, ``Attribute.attr`` and import aliases.
    String constants — docstrings, ``__all__`` entries — are not
    identifiers and never count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno


def test_every_public_name_is_reached_outside_tests():
    """Every public function, class and method under ``src/repro``
    serves a path a user runs: an identifier in the code of ``src/``,
    ``benchmarks/``, ``examples/`` or ``tools/`` names it.  Docstrings,
    ``__all__``, package ``__init__`` re-exports, the test oracles of
    ``repro.reference`` and the name's own definition do not count.  A
    method counts as reached when any attribute of that name is used
    (the census cannot see types).  That is a known blind spot: a
    test-only method whose name collides with another attribute in use
    (say a ``step`` method and an unrelated ``obj.step``) passes.  A
    later change may narrow it, e.g. to attribute uses on a receiver
    whose class the AST shows.  Names in :data:`PENDING` wait for a
    later change; the test fails when one of them is reached or gone,
    so the list only shrinks."""
    uses = {}
    for top in ("src", "benchmarks", "examples", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            dotted = ".".join(path.relative_to(ROOT / "src").with_suffix("")
                              .parts) if top == "src" else None
            if path.name == "__init__.py" or dotted == "repro.reference":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, line in _identifier_lines(tree):
                uses.setdefault(name, []).append((path, line))
    unreached = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        dotted = ".".join(path.relative_to(ROOT / "src").with_suffix("")
                          .parts)
        if path.name == "__init__.py" or dotted in NAME_GUARD_EXEMPT:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, node in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(user != path or line not in own
                       for user, line in uses.get(node.name, ())):
                unreached.add(f"{dotted}.{qualified}")
    offenders = sorted(unreached - set(PENDING))
    assert offenders == [], (
        "reached only by tests — delete them, move an oracle to "
        f"repro.reference, or put them on a path a user runs: {offenders}")
    settled = sorted(set(PENDING) - unreached)
    assert settled == [], (
        f"PENDING names that are now reached or gone — drop them: {settled}")


def _workflow_scripts():
    """``(workflow, line, source)`` for each inline Python script
    (``python - <<'EOF'`` heredoc) in the CI workflows."""
    heredoc = re.compile(r"python - <<'EOF'\n(.*?)\n[ \t]*EOF\b", re.S)
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        text = path.read_text(encoding="utf-8")
        for match in heredoc.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield path.name, line, textwrap.dedent(match.group(1))


def test_workflow_scripts_import_existing_names():
    """The CI workflows' inline Python scripts import only names that
    ``repro`` still defines.  The reach census does not read the
    workflows, so without this check a deletion breaks a CI step
    silently."""
    scripts = list(_workflow_scripts())
    assert scripts, "no inline CI scripts found: update the pattern"
    missing = []
    for workflow, line, source in scripts:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                missing.extend(
                    f"{workflow}:{line}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name))
    assert missing == [], f"CI scripts import deleted names: {missing}"
