"""What the contract linters share: findings, pragmas, allowlist, driver.

:mod:`~repro.analysis.detlint` and :mod:`~repro.analysis.racelint` differ
in their rule catalog, their allowlist and the AST visitor that finds
violations; everything around that — the suppression-pragma grammar, the
per-path allowlist, walking a tree of files, the report and the CLI entry
point — is one :class:`LintTool`, parametrised by the tool's name.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Any

#: (path suffix, exempt rules or None for all, reason).
Allowlist = list[tuple[str, frozenset[str] | None, str]]


@dataclass(frozen=True)
class Violation:
    """One linter finding, addressable as ``path:line``."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


class LintTool:
    """One contract linter: ``visitor(path, tree)`` is an
    :class:`ast.NodeVisitor` that leaves its findings in ``.violations``;
    ``rules`` and ``allowlist`` are the tool module's public tables (held
    by reference, so the module's names stay the single source)."""

    def __init__(self, name: str, contract: str, rules: dict[str, str],
                 allowlist: Allowlist, visitor: Any):
        self.name = name
        self.contract = contract
        self.rules = rules
        self.allowlist = allowlist
        self.visitor = visitor
        self._pragma_re = re.compile(
            rf"#\s*{name}:\s*ok\(\s*([a-z_]+(?:\s*,\s*[a-z_]+)*)\s*\)"
            r"\s*(?:[-—:]+\s*(\S.*))?$")

    def _collect_pragmas(self, source: str, path: str,
                         ) -> tuple[dict[int, frozenset[str]],
                                    list[Violation]]:
        """Parse suppression comments into ``{line: rules}``; malformed
        ones are findings.

        Scans actual COMMENT tokens (not raw lines), so pragma examples
        quoted inside docstrings and string literals never count.
        """
        pragmas: dict[int, frozenset[str]] = {}
        bad: list[Violation] = []
        comments: list[tuple[int, str]] = []
        try:
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type == tokenize.COMMENT:
                    comments.append((tok.start[0], tok.string))
        except (tokenize.TokenError, IndentationError):
            pass  # lint_source already rejects files that do not parse
        for lineno, text in comments:
            if f"{self.name}:" not in text:
                continue
            match = self._pragma_re.search(text)
            if match is None:
                bad.append(Violation(
                    path, lineno, "pragma",
                    "unparseable pragma; write "
                    f"'# {self.name}: ok(<rule>) - <reason>'"))
                continue
            rules = frozenset(r.strip() for r in match.group(1).split(","))
            unknown = rules - self.rules.keys()
            if unknown:
                bad.append(Violation(
                    path, lineno, "pragma",
                    "pragma names unknown rule(s): "
                    f"{', '.join(sorted(unknown))}"))
                continue
            if not (match.group(2) or "").strip():
                bad.append(Violation(
                    path, lineno, "pragma",
                    f"suppression of {', '.join(sorted(rules))} carries no "
                    "reason; a pragma is a reviewed claim — state it"))
                continue
            pragmas[lineno] = rules
        return pragmas, bad

    def _exempt_rules(self, path: str) -> frozenset[str]:
        """Rules the allowlist exempts for ``path``."""
        norm = path.replace(os.sep, "/")
        exempt: set[str] = set()
        for suffix, rules, _reason in self.allowlist:
            if norm.endswith(suffix):
                if rules is None:
                    return frozenset(self.rules)
                exempt |= rules
        return frozenset(exempt)

    def lint_source(self, source: str,
                    path: str = "<string>") -> list[Violation]:
        """Lint one module's source text; returns unsuppressed violations.

        Applies the allowlist (by ``path`` suffix) and honors suppression
        pragmas on the violation's line or the line directly above it.
        Malformed pragmas are themselves violations and cannot be
        suppressed.
        """
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [Violation(path, exc.lineno or 0, "pragma",
                              f"file does not parse: {exc.msg}")]
        pragmas, out = self._collect_pragmas(source, path)
        linter = self.visitor(path, tree)
        linter.visit(tree)
        exempt = self._exempt_rules(path)
        seen: set[Violation] = set()
        for violation in linter.violations:
            if violation.rule in exempt:
                continue
            rules = pragmas.get(violation.line) or \
                pragmas.get(violation.line - 1)
            if rules is not None and violation.rule in rules:
                continue
            if violation in seen:
                continue  # nested-block scans can visit a statement twice
            seen.add(violation)
            out.append(violation)
        out.sort(key=lambda v: (v.path, v.line, v.rule))
        return out

    def lint_paths(self, paths: list[str]) -> list[Violation]:
        """Lint ``.py`` files under each path (file or directory tree)."""
        files: list[str] = []
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames[:] = sorted(
                        d for d in dirnames if d != "__pycache__")
                    files.extend(os.path.join(dirpath, name)
                                 for name in sorted(filenames)
                                 if name.endswith(".py"))
            elif path.endswith(".py"):
                files.append(path)
        out: list[Violation] = []
        for filename in files:
            with open(filename, encoding="utf-8") as handle:
                out.extend(self.lint_source(handle.read(), filename))
        out.sort(key=lambda v: (v.path, v.line, v.rule))
        return out

    def format_violations(self, violations: list[Violation]) -> str:
        """Human-readable report, one finding per line plus a summary."""
        if not violations:
            return f"{self.name}: clean (0 violations)"
        lines = [v.format() for v in violations]
        by_rule: dict[str, int] = {}
        for v in violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        summary = "  ".join(f"{rule}: {count}"
                            for rule, count in sorted(by_rule.items()))
        lines.append(
            f"{self.name}: {len(violations)} violation(s)  [{summary}]")
        return "\n".join(lines)

    def main(self, argv: list[str] | None = None) -> int:
        """Entry point for ``repro <tool>`` (returns the exit code)."""
        import argparse

        parser = argparse.ArgumentParser(
            prog=f"repro {self.name}",
            description=f"{self.contract}-contract linter over sim-domain "
                        "sources.")
        parser.add_argument("paths", nargs="*", default=["src"],
                            help="files or directories to lint "
                                 "(default: src)")
        parser.add_argument("--list-rules", action="store_true",
                            help="print the rule catalog and exit")
        args = parser.parse_args(argv)
        if args.list_rules:
            for rule, description in self.rules.items():
                print(f"{rule:<12} {description}")
            return 0
        violations = self.lint_paths(args.paths)
        print(self.format_violations(violations))
        return 1 if violations else 0
