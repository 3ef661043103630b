"""The docs/api/ reference must match the code it documents."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_api_docs  # noqa: E402

DOCS_API = REPO_ROOT / "docs" / "api"


def test_docs_api_tree_exists():
    assert DOCS_API.is_dir()
    for page in ("README.md", "behav.md", "core.md", "hdl.md", "netsim.md",
                 "obs.md", "reference.md", "shard.md", "sweep.md"):
        assert (DOCS_API / page).is_file(), f"missing docs/api/{page}"


def test_every_documented_name_resolves():
    names = list(check_api_docs.iter_documented_names(DOCS_API))
    assert len(names) > 100, "suspiciously few documented names — regex broken?"
    failures = []
    for page, dotted in names:
        try:
            check_api_docs.resolve(dotted)
        except Exception as exc:
            failures.append(f"{page}: `{dotted}`: {exc}")
    assert not failures, "broken API doc references:\n" + "\n".join(failures)


def test_checker_rejects_bogus_name(tmp_path):
    (tmp_path / "fake.md").write_text("see `repro.core.DoesNotExist`\n")
    with pytest.raises(AttributeError):
        check_api_docs.resolve("repro.core.DoesNotExist")
    assert check_api_docs.main(["check_api_docs", str(tmp_path)]) == 1


def test_shard_page_claims_and_holds_completeness():
    """docs/api/shard.md declares itself complete for repro.shard, and
    no public name of the package is missing from the page."""
    claims = dict(check_api_docs.iter_completeness_claims(DOCS_API))
    assert claims.get("shard.md") == "repro.shard"
    assert check_api_docs.missing_public_names(
        DOCS_API, "shard.md", "repro.shard") == []


def test_completeness_claim_fails_on_undocumented_name(tmp_path, capsys):
    """A page claiming completeness while omitting a public name must
    fail the checker (the anti-drift direction of the gate)."""
    (tmp_path / "fake.md").write_text(
        "<!-- api:complete repro.shard -->\n\nonly `repro.shard.ShardHandle`\n")
    assert check_api_docs.main(["check_api_docs", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "api:complete repro.shard" in err
    assert "ShardGroup" in err


def test_checker_main_passes_on_real_docs(capsys):
    assert check_api_docs.main(["check_api_docs", str(DOCS_API)]) == 0
    assert "OK" in capsys.readouterr().out
