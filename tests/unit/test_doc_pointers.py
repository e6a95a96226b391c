"""Pointers from the docs into the tree cannot rot.

Every backticked ``repro.x.y`` dotted name, ``path/to/file.py`` and
``file.py:line`` in a narrative ``*.md`` must exist: the module (and the
attribute named after it) is in ``src/``, the file is in the tree, and it
is at least that many lines long. Reads files only — nothing is imported.

Exempt: the paper and retrieval files (PAPER.md, PAPERS.md, SNIPPETS.md),
the append-only history (CHANGES.md), the planning files that name things
not built yet (ROADMAP.md, ISSUE.md) and ``perf/README.md`` (``perf/`` is
frozen whenever a PR claims a gain, so it is fixed in benchmark-only PRs).
"""

import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXEMPT = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "CHANGES.md", "ROADMAP.md",
          "ISSUE.md", "perf/README.md"}
SKIP_DIRS = {".git", ".pytest_cache", ".hypothesis"}

BACKTICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")
PY_PATH = re.compile(r"(?<![\w./*-])([\w./-]*\w\.py)(?::(\d+))?(?![\w*])")
#: Where a relative path in prose may be rooted.
BASES = ("", "src", "src/repro")


def _docs():
    for path in sorted(ROOT.rglob("*.md")):
        rel = path.relative_to(ROOT)
        if not SKIP_DIRS.intersection(rel.parts) and rel.as_posix() not in EXEMPT:
            yield path, rel.as_posix()


def _dotted_problem(name: str) -> str | None:
    """Walk ``repro.a.b.c``: packages, then a module; the first name after
    the module must appear in that module's source."""
    here = ROOT / "src"
    for part in name.split("."):
        if (here / part).is_dir():
            here = here / part
        elif (here / f"{part}.py").is_file():
            here = here / f"{part}.py"
        else:
            source = here if here.is_file() else here / "__init__.py"
            if re.search(rf"\b{re.escape(part)}\b", source.read_text()):
                return None
            return f"no {part!r} in {source.relative_to(ROOT)}"
    return None


@cache
def _py_files() -> dict[str, Path]:
    """Basename -> one path, for pointers written as a bare ``file.py``."""
    return {
        path.name: path for path in ROOT.rglob("*.py")
        if not SKIP_DIRS.intersection(path.relative_to(ROOT).parts)
    }


def _path_problem(doc: Path, path: str, line: str | None) -> str | None:
    if "/" in path:
        roots = [ROOT / base / path for base in BASES] + [doc.parent / path]
        found = next((p for p in roots if p.is_file()), None)
    else:
        found = _py_files().get(path)
    if found is None:
        return "no such file"
    if line is not None and int(line) > len(found.read_text().splitlines()):
        return f"{found.relative_to(ROOT)} has fewer than {line} lines"
    return None


def test_every_backticked_module_and_file_exists():
    problems = []
    for doc, rel in _docs():
        for lineno, text in enumerate(doc.read_text().splitlines(), 1):
            for span in BACKTICKED.findall(text):
                for name in DOTTED.findall(span):
                    problem = _dotted_problem(name)
                    if problem:
                        problems.append(f"{rel}:{lineno} `{name}`: {problem}")
                for path, line in PY_PATH.findall(span):
                    problem = _path_problem(doc, path, line or None)
                    if problem:
                        problems.append(f"{rel}:{lineno} `{path}`: {problem}")
    assert not problems, (
        f"{len(problems)} stale pointer(s) in the docs:\n  "
        + "\n  ".join(problems))
