"""S family: registry- and docs-sync rules.

The repo keeps several registries that must agree with code that
lives elsewhere: the profile stage schema, the argparse tree vs
``docs/cli.md``, the BENCH entry schema vs ``docs/performance.md``,
and the named load/impairment profiles.  Five project rules check the
docs (CI runs exactly those via ``repro lint --select``); an AST rule
checks that stage names used in the pipeline exist in the schema.
"""

from __future__ import annotations

import ast
import importlib
import re
import shlex
from typing import Iterator

from repro.lint.engine import AstRule, Finding, ModuleSource, Project, ProjectRule


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


# ----------------------------------------------------------------------
# S-STAGE — profile stage names used in the pipeline must be schema'd
# ----------------------------------------------------------------------


def _allowed_stage_names() -> frozenset[str]:
    """Shard stages plus engine stages (``<name>_s`` schema fields)."""
    from repro.pipeline.profile import ENGINE_PROFILE_FIELDS, SHARD_STAGES

    engine_stages = {
        name[: -len("_s")]
        for name in ENGINE_PROFILE_FIELDS
        if name.endswith("_s")
    }
    return frozenset(SHARD_STAGES) | frozenset(engine_stages)


class StageNameRule(AstRule):
    """S-STAGE: ``timer.stage("…")`` names must exist in the schema."""

    rule_id = "S-STAGE"
    severity = "error"
    summary = (
        "stage name not in the profile schema — validate_profile would "
        "reject every document the run produces"
    )
    hint = (
        "add the stage to repro.pipeline.profile.SHARD_STAGES (or the "
        "engine fields) before timing against it"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return "pipeline/" in module.rel or "stream/" in module.rel

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        allowed = _allowed_stage_names()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "stage"):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                continue  # dynamic stage names are checked at runtime
            if arg.value not in allowed:
                yield self.finding(
                    module.rel,
                    arg.lineno,
                    arg.col_offset + 1,
                    f"stage {arg.value!r} is not in the profile schema",
                )


# ----------------------------------------------------------------------
# Docs rules
# ----------------------------------------------------------------------

MODULE_REF = re.compile(r"\brepro(?:\.[a-z_][a-z0-9_]*)+\b")
MD_LINK = re.compile(r"\[[^\]]+\]\(([^)]+)\)")
CLI_SNIPPET = re.compile(r"^\$ (?:PYTHONPATH=\S+ )?python -m repro (.+)$", re.MULTILINE)
CLI_HEADING = re.compile(r"^#+ .*`(repro[^`]*)`", re.MULTILINE)
CLI_OPTION = re.compile(r"`(--[a-z][a-z-]*)`")
# Greedy token scan for coverage checks: matches the longest flag at
# each position, so documenting `--cache-dir` can never be mistaken
# for documenting a hypothetical `--cache`.
OPTION_TOKEN = re.compile(r"--[a-z][a-z-]*")
CODE_TOKEN = re.compile(r"`([a-z][a-z-]*)`")
FIELD_TOKEN = re.compile(r"`([a-z_]+)`")


def _check_module_ref(ref: str) -> bool:
    """True when ``ref`` is an importable module or module attribute."""
    parts = ref.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            module = importlib.import_module(module_name)
        # repro-lint: disable=X-SWALLOW — probing successively shorter module prefixes; a miss just tries the next split
        except ImportError:
            continue
        obj = module
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _iter_cli_commands(parser, prefix: str = "repro"):
    """Yield ``(command_path, parser)`` for every subcommand, recursively."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for name, sub in action.choices.items():
                if id(sub) in seen:  # aliases map to the same parser
                    continue
                seen.add(id(sub))
                path = f"{prefix} {name}"
                yield path, sub
                yield from _iter_cli_commands(sub, path)


def _command_options(parser) -> set[str]:
    """The long option strings one command defines (``--help`` aside)."""
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


class DocReferenceRule(ProjectRule):
    """S-DOC-REF: docs must only reference things that exist."""

    rule_id = "S-DOC-REF"
    severity = "error"
    summary = (
        "docs reference something unreal: a repro.* dotted path that "
        "does not import, a broken relative link, or a CLI snippet the "
        "parser rejects"
    )
    hint = "fix the reference, or update the docs to match the code"

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.cli import build_parser

        for path in project.doc_files():
            text = path.read_text(encoding="utf-8")
            rel = project.rel(path)

            for match in MODULE_REF.finditer(text):
                ref = match.group(0)
                if not _check_module_ref(ref):
                    line, col = _line_col(text, match.start())
                    yield self.finding(
                        rel, line, col, f"unresolvable module reference {ref!r}"
                    )

            for match in MD_LINK.finditer(text):
                target = match.group(1)
                if "://" in target or target.startswith("mailto:"):
                    continue  # external links are out of scope offline
                file_part = target.split("#", 1)[0]
                if not file_part:
                    continue  # same-file anchor
                if not (path.parent / file_part).resolve().exists():
                    line, col = _line_col(text, match.start())
                    yield self.finding(rel, line, col, f"broken link {target!r}")

            for match in CLI_SNIPPET.finditer(text):
                arg_line = match.group(1).strip()
                try:
                    build_parser().parse_args(shlex.split(arg_line))
                except SystemExit:
                    line, col = _line_col(text, match.start())
                    yield self.finding(
                        rel,
                        line,
                        col,
                        f"does not parse: python -m repro {arg_line}",
                    )


class CliReferenceRule(ProjectRule):
    """S-CLI-DOC: ``docs/cli.md`` must mirror the argparse tree."""

    rule_id = "S-CLI-DOC"
    severity = "error"
    summary = (
        "docs/cli.md out of sync with the argparse tree: a command "
        "without a section, an undocumented flag, or a documented flag "
        "that does not exist"
    )
    hint = "update docs/cli.md to match the repro.cli parser"

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.cli import build_parser

        path = project.root / "docs" / "cli.md"
        if not path.exists():
            yield self.finding("docs/cli.md", 1, 1, "docs/cli.md is missing")
            return
        text = path.read_text(encoding="utf-8")
        rel = project.rel(path)

        commands = dict(_iter_cli_commands(build_parser()))
        headings = [
            (match.start(), match.group(1).strip())
            for match in CLI_HEADING.finditer(text)
        ]
        sections: dict[str, tuple[int, str]] = {}
        for index, (start, name) in enumerate(headings):
            end = headings[index + 1][0] if index + 1 < len(headings) else len(text)
            sections[name] = (start, text[start:end])

        for name, (start, _) in sections.items():
            if name != "repro" and name not in commands:
                line, col = _line_col(text, start)
                yield self.finding(
                    rel, line, col, f"section for unknown command {name!r}"
                )
        # Flags shared by several commands (--seed, --jobs, …) may be
        # documented once in the preamble instead of in every section.
        preamble = text[: headings[0][0]] if headings else text
        shared = set(OPTION_TOKEN.findall(preamble))
        for name, parser in commands.items():
            entry = sections.get(name)
            if entry is None:
                yield self.finding(
                    rel, 1, 1, f"no section heading for `{name}`"
                )
                continue
            start, section = entry
            line, col = _line_col(text, start)
            documented = set(OPTION_TOKEN.findall(section)) | shared
            for option in sorted(_command_options(parser) - documented):
                yield self.finding(
                    rel,
                    line,
                    col,
                    f"`{name}` section does not document {option}",
                )

        all_options = {
            option
            for parser in commands.values()
            for option in _command_options(parser)
        }
        documented_options = {
            match.group(1): match.start() for match in CLI_OPTION.finditer(text)
        }
        for option in sorted(set(documented_options) - all_options):
            line, col = _line_col(text, documented_options[option])
            yield self.finding(
                rel, line, col, f"documents nonexistent option {option}"
            )


class NamedProfileRule(ProjectRule):
    """S-PROFILE-DOC: every named load/impairment/fault profile is documented.

    ``--impair``, ``--profile`` and ``--inject-faults`` take closed
    sets of names; a profile added to the code without a line in
    ``docs/cli.md`` would be invisible to users reading the reference.
    """

    rule_id = "S-PROFILE-DOC"
    severity = "error"
    summary = (
        "a named load/impairment/fault profile is missing from docs/cli.md"
    )
    hint = "mention the profile name as an inline-code token in docs/cli.md"

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.faults import FAULT_PROFILES
        from repro.services.generator import LOAD_PROFILES
        from repro.stream.impair import IMPAIRMENT_PROFILES

        path = project.root / "docs" / "cli.md"
        if not path.exists():
            yield self.finding("docs/cli.md", 1, 1, "docs/cli.md is missing")
            return
        text = path.read_text(encoding="utf-8")
        rel = project.rel(path)
        documented = set(CODE_TOKEN.findall(text))
        for name in IMPAIRMENT_PROFILES:
            if name not in documented:
                yield self.finding(
                    rel, 1, 1, f"impairment profile `{name}` is not documented"
                )
        for name in LOAD_PROFILES:
            if name not in documented:
                yield self.finding(
                    rel, 1, 1, f"load profile `{name}` is not documented"
                )
        for name in FAULT_PROFILES:
            if name not in documented:
                yield self.finding(
                    rel, 1, 1, f"fault profile `{name}` is not documented"
                )


class BenchSchemaRule(ProjectRule):
    """S-BENCH-DOC: every BENCH schema field is documented.

    The benchmark trajectory is only useful if its on-disk schema is
    readable without the source; any field added to
    ``repro.bench.BENCH_SCHEMA_FIELDS`` has to show up (as an
    inline-code token) in ``docs/performance.md``.
    """

    rule_id = "S-BENCH-DOC"
    severity = "error"
    summary = (
        "a BENCH_<n>.json schema field is missing from "
        "docs/performance.md"
    )
    hint = "document the field in the BENCH schema table"

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.bench import BENCH_SCHEMA_FIELDS

        path = project.root / "docs" / "performance.md"
        if not path.exists():
            yield self.finding(
                "docs/performance.md", 1, 1, "docs/performance.md is missing"
            )
            return
        text = path.read_text(encoding="utf-8")
        rel = project.rel(path)
        documented = set(FIELD_TOKEN.findall(text))
        for field in BENCH_SCHEMA_FIELDS:
            if field not in documented:
                yield self.finding(
                    rel,
                    1,
                    1,
                    f"BENCH schema field `{field}` is not documented",
                )


class MetricCatalogRule(ProjectRule):
    """S-METRIC-DOC: every cataloged telemetry metric is documented.

    The metrics registry refuses to create a metric that is not in
    :data:`repro.obs.catalog.CATALOG`, and this rule closes the loop
    the other way: a cataloged name that never shows up (as an
    inline-code token) in ``docs/observability.md`` is invisible to
    anyone deciding what to scrape or alert on.
    """

    rule_id = "S-METRIC-DOC"
    severity = "error"
    summary = (
        "a cataloged telemetry metric is missing from "
        "docs/observability.md"
    )
    hint = "document the metric in the docs/observability.md catalog table"

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.obs.catalog import CATALOG

        path = project.root / "docs" / "observability.md"
        if not path.exists():
            yield self.finding(
                "docs/observability.md",
                1,
                1,
                "docs/observability.md is missing",
            )
            return
        text = path.read_text(encoding="utf-8")
        rel = project.rel(path)
        documented = set(FIELD_TOKEN.findall(text))
        for name in CATALOG:
            if name not in documented:
                yield self.finding(
                    rel, 1, 1, f"metric `{name}` is not documented"
                )


ALL = (
    StageNameRule(),
    DocReferenceRule(),
    CliReferenceRule(),
    NamedProfileRule(),
    BenchSchemaRule(),
    MetricCatalogRule(),
)
