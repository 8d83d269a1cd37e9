#!/usr/bin/env python3
"""Documentation checks: intra-repo links and documented CLI flags.

Two checks, no third-party dependencies:

1. **Links** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must resolve to an existing file or directory (external
   ``http(s)://`` links and pure ``#anchors`` are skipped; a ``#fragment``
   on a relative link is stripped before checking).
2. **Flags** — every ``--flag`` token mentioned in the flag-checked docs
   (``README.md``, ``docs/batching.md``, ``docs/service.md``, ...) must
   appear in the help output of one of the checked subcommands
   (``repro batch``, ``repro solve``, ``repro work submit/run/status``,
   ``repro store verify``), so the docs cannot drift from the CLI.

Run from the repository root (CI runs it in the ``docs`` job)::

    python tools/check_docs.py

Exit status 0 on success; failures are listed one per line.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Long CLI flags as they appear in prose/code blocks.
FLAG_RE = re.compile(r"(--[a-z][a-z0-9-]+)")

#: Markdown files whose links are checked.
DOC_FILES = (
    "README.md",
    "docs/architecture.md",
    "docs/pipeline.md",
    "docs/batching.md",
    "docs/unstructured.md",
    "docs/observability.md",
    "docs/service.md",
    "docs/solving.md",
    "docs/ci.md",
)

#: Files whose ``--flags`` must exist in one of the checked CLI helps.
FLAG_DOC_FILES = (
    "README.md",
    "docs/batching.md",
    "docs/unstructured.md",
    "docs/observability.md",
    "docs/service.md",
    "docs/solving.md",
    "docs/ci.md",
)

#: Subcommands whose ``--help`` output the documented flags are checked
#: against (a flag may live in any of them).
HELP_COMMANDS = (
    ("batch", "--help"),
    ("solve", "--help"),
    ("trace", "--help"),
    ("obs", "report", "--help"),
    ("work", "submit", "--help"),
    ("work", "run", "--help"),
    ("work", "status", "--help"),
    ("store", "verify", "--help"),
)

#: Documented flags that belong to other subcommands or to pytest, not to
#: ``repro batch``.
FLAG_ALLOWLIST = {
    "--paper-scale",
    "--out",
    # flags of tools/check_bench.py and pytest-benchmark (docs/ci.md)
    "--baseline",
    "--delta-out",
    "--benchmark-json",
    # flag of perf/run.py (docs/ci.md)
    "--scale",
}


def iter_links(md_path: Path):
    """Yield (line_number, target) for every inline link in *md_path*."""
    for lineno, line in enumerate(md_path.read_text().splitlines(), start=1):
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def check_links(repo: Path = REPO, files=DOC_FILES) -> list[str]:
    """Return a list of broken-link descriptions (empty = all good)."""
    errors = []
    for rel in files:
        md = repo / rel
        if not md.exists():
            errors.append(f"{rel}: file missing")
            continue
        for lineno, target in iter_links(md):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure anchor
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def documented_flags(repo: Path = REPO, files=FLAG_DOC_FILES) -> set[str]:
    """All ``--flag`` tokens mentioned in *files*, minus the allowlist."""
    flags: set[str] = set()
    for rel in files:
        md = repo / rel
        if md.exists():
            flags.update(FLAG_RE.findall(md.read_text()))
    return flags - FLAG_ALLOWLIST


def cli_help_text(repo: Path = REPO) -> str:
    """Concatenated ``--help`` output of every checked subcommand."""
    texts = []
    for command in HELP_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *command],
            capture_output=True,
            text=True,
            cwd=repo,
            env={**__import__("os").environ, "PYTHONPATH": str(repo / "src")},
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"repro {' '.join(command)} failed:\n{proc.stderr}"
            )
        texts.append(proc.stdout)
    return "\n".join(texts)


def check_flags(repo: Path = REPO) -> list[str]:
    """Return descriptions of documented flags missing from the CLI help."""
    help_text = cli_help_text(repo)
    return [
        f"documented flag {flag} not in any checked `python -m repro` help"
        for flag in sorted(documented_flags(repo))
        if flag not in help_text
    ]


def main() -> int:
    errors = check_links()
    errors += check_flags()
    if errors:
        print("documentation checks FAILED:")
        for err in errors:
            print(f"  {err}")
        return 1
    n_links = sum(len(list(iter_links(REPO / f))) for f in DOC_FILES if (REPO / f).exists())
    print(f"docs OK: {n_links} links resolved, "
          f"{len(documented_flags())} documented flags present in CLI help")
    return 0


if __name__ == "__main__":
    sys.exit(main())
