"""Docs sanity checker: every internal markdown link must resolve,
docs/TUNING.md must document exactly the knobs ``EngineConfig`` has, and
the docs name only ``engine.last_*`` surfaces that ``Engine`` defines and
only ``EngineConfig`` fields that exist.

Usage (CI): ``python tools/check_docs.py``

Scans the maintained documentation — ``docs/*.md`` plus ROADMAP.md and
CHANGES.md (PAPER.md / PAPERS.md / SNIPPETS.md are generated retrieval
material and excluded) — for ``[text](target)`` links and verifies that

* relative file targets exist on disk (anchors stripped), and
* intra-repo anchors (``file.md#section`` or ``#section``) match a heading
  of the target file, using GitHub's slug rules (lowercase, spaces to
  dashes, punctuation dropped).

External links (``http(s)://``, ``mailto:``) are skipped — this guards the
*internal* consistency of the docs tree, not the internet.

The knob check compares the ``### `knob``` headings of docs/TUNING.md with
the fields of ``repro.EngineConfig``: a heading naming no field (a knob
deleted from the code but not the docs) and a field with no heading (a knob
added, or half-deleted, without documentation) both fail.

The observability check reads ``docs/*.md`` and the verify skill notes
(``.claude/skills/verify/SKILL.md``) for ``engine.last_<name>`` mentions
and fails on any name ``repro.executor.engine.Engine`` does not define, so
a removed per-query surface cannot stay documented.  The config check reads
the same files for ``EngineConfig.<name>`` and ``db.config.<name>`` and
fails on any name that is not an ``EngineConfig`` field, so a removed knob
cannot stay documented either.  CHANGES.md and ROADMAP.md are history and
may name removed surfaces and knobs.

Exits non-zero listing every problem.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: [text](target) — excluding images' leading "!" is unnecessary: image
#: targets should resolve too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")
_KNOB_HEADING = re.compile(r"^### `(\w+)`", re.MULTILINE)
_ENGINE_SURFACE = re.compile(r"engine\.(last_\w+)")
_CONFIG_NAME = re.compile(r"\b(?:EngineConfig|db\.config)\.(\w+)")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markdown, lowercase, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def doc_files() -> list:
    files = sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    for name in ("ROADMAP.md", "CHANGES.md", "README.md"):
        path = os.path.join(REPO_ROOT, name)
        if os.path.exists(path):
            files.append(path)
    return files


def anchors_of(path: str) -> set:
    with open(path, encoding="utf-8") as handle:
        return {github_slug(match) for match in _HEADING.findall(handle.read())}


def check_file(path: str) -> list:
    problems = []
    base = os.path.dirname(path)
    relative = os.path.relpath(path, REPO_ROOT)
    with open(path, encoding="utf-8") as handle:
        content = handle.read()
    for target in _LINK.findall(content):
        if target.startswith(_EXTERNAL):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = os.path.normpath(os.path.join(base, file_part))
            if not os.path.exists(resolved):
                problems.append(f"{relative}: broken link target {target!r}")
                continue
        else:
            resolved = path
        if anchor and resolved.endswith(".md"):
            if anchor not in anchors_of(resolved):
                problems.append(
                    f"{relative}: anchor {target!r} matches no heading of "
                    f"{os.path.relpath(resolved, REPO_ROOT)}")
    return problems


def config_fields() -> set:
    """Field names of ``repro.EngineConfig``, imported from ``src/``."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro import EngineConfig
    return {field.name for field in dataclasses.fields(EngineConfig)}


def engine_surfaces() -> set:
    """The ``last_*`` observability attributes ``Engine`` defines."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.executor.engine import Engine
    return {name for name in dir(Engine) if name.startswith("last_")}


def surface_files() -> list:
    """Current-API docs checked for stale ``engine.last_*`` and config
    names."""
    files = sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    skill = os.path.join(REPO_ROOT, ".claude", "skills", "verify", "SKILL.md")
    if os.path.exists(skill):
        files.append(skill)
    return files


def check_surfaces(relative: str, text: str, surfaces: set) -> list:
    """``engine.last_*`` names in ``text`` that ``Engine`` does not define."""
    return [f"{relative}: engine.{name} is not an Engine attribute"
            for name in sorted(set(_ENGINE_SURFACE.findall(text)) - surfaces)]


def check_config_names(relative: str, text: str, fields: set) -> list:
    """``EngineConfig.<name>`` / ``db.config.<name>`` mentions in ``text``
    that name no ``EngineConfig`` field."""
    return [f"{relative}: EngineConfig.{name} is not an EngineConfig field"
            for name in sorted(set(_CONFIG_NAME.findall(text)) - fields)]


def check_knobs(tuning_text: str, fields: set) -> list:
    """Mismatches between TUNING.md's knob headings and the config fields."""
    documented = set(_KNOB_HEADING.findall(tuning_text))
    return [f"docs/TUNING.md: heading `{knob}` names no EngineConfig field"
            for knob in sorted(documented - fields)] + \
           [f"docs/TUNING.md: EngineConfig.{knob} has no ### `{knob}` section"
            for knob in sorted(fields - documented)]


def main() -> int:
    files = doc_files()
    if not os.path.isdir(os.path.join(REPO_ROOT, "docs")):
        print("docs/ directory is missing")
        return 1
    problems = []
    for path in files:
        problems.extend(check_file(path))
    fields = config_fields()
    with open(os.path.join(REPO_ROOT, "docs", "TUNING.md"),
              encoding="utf-8") as handle:
        problems.extend(check_knobs(handle.read(), fields))
    surfaces = engine_surfaces()
    for path in surface_files():
        relative = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        problems.extend(check_surfaces(relative, text, surfaces))
        problems.extend(check_config_names(relative, text, fields))
    for problem in problems:
        print(problem)
    print(f"checked {len(files)} markdown file(s): "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
