"""Documentation gates: intra-repo links resolve, CLI reference is fresh.

These run in tier-1 (and again in the CI ``docs`` job next to
``mkdocs build --strict``) so documentation rot fails the build the same
way a broken unit does:

* every relative Markdown link in ``README.md`` and ``docs/`` must point
  at a file that exists;
* ``docs/cli.md`` must match a fresh rendering from the ``argparse``
  definitions (``repro.cli.render_cli_reference``) — any CLI change
  without ``python docs/generate_cli.py`` fails here;
* every page the mkdocs nav references must exist, and every docs page
  must be reachable from the nav;
* the stats-schema tables in ``docs/serving.md`` — single-index and
  registry — must each list exactly the keys a live payload emits;
  stats drift without a doc update fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import render_cli_reference

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

#: Markdown inline links: [text](target) — excluding images' inner text.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _markdown_files() -> list[Path]:
    return [REPO_ROOT / "README.md", *sorted(DOCS.glob("*.md"))]


def _relative_links(path: Path) -> list[str]:
    text = path.read_text()
    # Strip fenced code blocks: CLI help output is full of [--flag] noise.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    links = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        links.append(target)
    return links


class TestIntraRepoLinks:
    @pytest.mark.parametrize("path", _markdown_files(),
                             ids=lambda p: p.name)
    def test_relative_links_resolve(self, path):
        broken = []
        for target in _relative_links(path):
            file_part = target.split("#", 1)[0]
            if not file_part:  # pure in-page anchor
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.is_relative_to(REPO_ROOT):
                # Forge-relative URLs (e.g. the ../../actions CI badge)
                # point above the checkout; they are not repo files.
                continue
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"broken relative links in {path.name}: {broken}"

    def test_readme_links_to_every_docs_page(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for page in ("architecture.md", "paper-map.md", "service.md",
                     "cli.md"):
            assert f"docs/{page}" in readme, \
                f"README must link to docs/{page}"


class TestCliReference:
    def test_generated_reference_is_committed_and_fresh(self):
        committed = (DOCS / "cli.md").read_text()
        fresh = render_cli_reference()
        assert committed == fresh, (
            "docs/cli.md is stale — regenerate with "
            "`PYTHONPATH=src python docs/generate_cli.py`")

    def test_reference_covers_every_subcommand(self):
        from repro.cli import _COMMANDS

        reference = (DOCS / "cli.md").read_text()
        for command in _COMMANDS:
            assert f"## repro {command}" in reference


class TestMkdocsNav:
    def _nav_pages(self) -> list[str]:
        # Dependency-free parse: nav entries look like "  - Title: page.md".
        pages = []
        in_nav = False
        for line in (REPO_ROOT / "mkdocs.yml").read_text().splitlines():
            if line.startswith("nav:"):
                in_nav = True
                continue
            if in_nav:
                if line and not line.startswith((" ", "-")):
                    break
                match = re.search(r":\s*(\S+\.md)\s*$", line)
                if match:
                    pages.append(match.group(1))
        return pages

    def test_nav_pages_exist(self):
        pages = self._nav_pages()
        assert pages, "mkdocs.yml must declare a nav"
        for page in pages:
            assert (DOCS / page).exists(), f"nav references missing {page}"

    def test_every_docs_page_is_in_nav(self):
        pages = set(self._nav_pages())
        on_disk = {path.name for path in DOCS.glob("*.md")}
        assert on_disk == pages, (
            f"docs/ pages and mkdocs nav disagree: "
            f"only on disk {on_disk - pages}, only in nav {pages - on_disk}")


def _documented_keys(marker: str) -> set[str]:
    """Backtick-quoted keys between ``<!-- marker:start/end -->``."""
    text = (DOCS / "serving.md").read_text()
    table = text.split(f"<!-- {marker}:start -->", 1)[1]
    table = table.split(f"<!-- {marker}:end -->", 1)[0]
    keys = set()
    for line in table.splitlines():
        match = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if match and match.group(1) != "Key":
            keys.add(match.group(1))
    return keys


class TestStatsSchemaTable:
    """``docs/serving.md``'s key table must match what a daemon emits."""

    def _documented_keys(self) -> set[str]:
        return _documented_keys("stats-keys")

    @staticmethod
    def _flatten(payload: dict, prefix: str = "") -> set[str]:
        keys = set()
        for name, value in payload.items():
            path = f"{prefix}{name}"
            if isinstance(value, dict) and value:
                keys |= TestStatsSchemaTable._flatten(value, f"{path}.")
            else:
                keys.add(path)
        return keys

    def test_table_matches_emitted_keys(self):
        import numpy as np

        from repro.metricspace.points import PointSet
        from repro.service import (
            DiversityServer,
            DiversityService,
            build_coreset_index,
        )

        rng = np.random.default_rng(0)
        index = build_coreset_index(PointSet(rng.normal(size=(40, 3))), 3,
                                    seed=0)
        with DiversityService(index, cache_size=8) as service:
            emitted = self._flatten(DiversityServer(service).stats())
        documented = self._documented_keys()
        assert documented, "serving.md stats table markers missing or empty"
        assert emitted == documented, (
            f"docs/serving.md stats table drifted from the live payload: "
            f"undocumented {sorted(emitted - documented)}, "
            f"stale {sorted(documented - emitted)}")


class TestRegistryStatsSchemaTable:
    """The registry stats table must match ``IndexRegistry.stats()``."""

    def test_table_matches_emitted_keys(self):
        import numpy as np

        from repro.metricspace.points import PointSet
        from repro.service import IndexRegistry, build_coreset_index

        rng = np.random.default_rng(0)
        index = build_coreset_index(PointSet(rng.normal(size=(40, 3))), 3,
                                    seed=0)
        with IndexRegistry() as registry:
            registry.register("demo", index)
            registry.query("demo", "remote-edge", 3)
            stats = registry.stats()
        # Per-tenant blocks are keyed by dataset_id; the table documents
        # them once under the <dataset> placeholder.
        per_tenant = stats["tenants"]["per_tenant"]
        stats["tenants"]["per_tenant"] = {
            "<dataset>": next(iter(per_tenant.values()))}
        emitted = TestStatsSchemaTable._flatten(stats)
        documented = _documented_keys("registry-stats-keys")
        assert documented, \
            "serving.md registry stats table markers missing or empty"
        assert emitted == documented, (
            f"docs/serving.md registry stats table drifted: "
            f"undocumented {sorted(emitted - documented)}, "
            f"stale {sorted(documented - emitted)}")


class TestQosStatsSchemaTable:
    """The Tenant QoS table must match the live WDRR scheduler block."""

    def test_table_matches_emitted_keys(self):
        from repro.service import TenantQuota, WeightedDeficitRoundRobin

        scheduler = WeightedDeficitRoundRobin(
            {"demo": TenantQuota(weight=2.0)})
        scheduler.admit("demo", object())
        scheduler.take()
        scheduler.record_latency("demo", 0.001)
        stats = scheduler.stats()
        # One tenant block stands in for every tenant, documented under
        # the <dataset> placeholder like the registry table.
        stats["per_tenant"] = {"<dataset>": stats["per_tenant"]["demo"]}
        emitted = TestStatsSchemaTable._flatten(stats)
        documented = _documented_keys("qos-stats-keys")
        assert documented, \
            "serving.md qos stats table markers missing or empty"
        assert emitted == documented, (
            f"docs/serving.md qos stats table drifted: "
            f"undocumented {sorted(emitted - documented)}, "
            f"stale {sorted(documented - emitted)}")
