"""O-rules: observability.

The PR 5 span tree is the instrument the perf gate and the run reports
read; a hot path that silently loses its ScopedSpan drops out of the cost
attribution without failing anything. O001 pins every registered phase to
its file. O002 keeps CMakeLists.txt complete so no translation unit can
drop out of the build (and thus out of clang-tidy and the span sweep).
O003 pins the cross-file hook sites of the spans/memstats/timeline stack
(the couplings registry): removing one compiles cleanly and only degrades
the traces, so presence is enforced statically.
"""

from __future__ import annotations

import re
from pathlib import Path

from mfbo_lint.engine import FileContext, Finding, ProjectRule, Rule
from mfbo_lint.lexer import lex, string_value


def _span_literals(tokens) -> set[str]:
    """String literals opened as spans: arguments of ScopedSpan(...) or of
    .emplace(...) on an optional<ScopedSpan> (both arms of a `?:` count)."""
    out: set[str] = set()
    n = len(tokens)
    optional_span_vars: set[str] = set()
    for i, t in enumerate(tokens):
        # Track `std::optional<spans::ScopedSpan> name;` declarations.
        if t.kind == "id" and t.value == "optional":
            window = tokens[i : i + 10]
            if any(w.kind == "id" and w.value == "ScopedSpan" for w in window):
                for w in window:
                    if w.kind == "id" and w.value not in {
                        "optional",
                        "spans",
                        "ScopedSpan",
                        "std",
                    }:
                        optional_span_vars.add(w.value)
                        break
    for i, t in enumerate(tokens):
        is_ctor = t.kind == "id" and t.value == "ScopedSpan"
        is_emplace = (
            t.kind == "id"
            and t.value == "emplace"
            and i >= 2
            and tokens[i - 1].kind == "punct"
            and tokens[i - 1].value == "."
            and tokens[i - 2].kind == "id"
            and tokens[i - 2].value in optional_span_vars
        )
        if not (is_ctor or is_emplace):
            continue
        j = i + 1
        # Skip over the variable name of a ctor: `ScopedSpan name(...)`.
        while j < n and tokens[j].kind == "id":
            j += 1
        if not (j < n and tokens[j].kind == "punct" and tokens[j].value == "("):
            continue
        depth = 0
        while j < n:
            tj = tokens[j]
            if tj.kind == "punct":
                if tj.value == "(":
                    depth += 1
                elif tj.value == ")":
                    depth -= 1
                    if depth == 0:
                        break
            elif tj.kind == "str":
                out.add(string_value(tj))
            j += 1
    return out


def check_o001_project(root: Path, files: dict[str, "FileContext"], config):
    """Every registered hot-path phase opens its ScopedSpan."""
    by_file: dict[str, list[str]] = {}
    for hp in config.hot_paths:
        by_file.setdefault(hp.file, []).append(hp.span)
    for relpath, spans in sorted(by_file.items()):
        ctx = files.get(relpath)
        if ctx is None:
            path = root / relpath
            if not path.is_file():
                yield Finding(
                    "O001",
                    relpath,
                    1,
                    "registered hot-path file is missing; update the "
                    "registry in tools/mfbo_lint/config.py",
                )
                continue
            tokens, _ = lex(path.read_text(encoding="utf-8"))
        else:
            tokens = ctx.tokens
        present = _span_literals(tokens)
        for span in spans:
            if span not in present:
                yield Finding(
                    "O001",
                    relpath,
                    1,
                    f"registered hot path `{span}` never opens "
                    f'ScopedSpan("{span}") in this file: the phase would '
                    "drop out of cost attribution and the perf gate",
                )


def check_o002_project(root: Path, files: dict[str, "FileContext"], config):
    """Every .cpp is listed in its directory's CMakeLists.txt."""
    dirs: dict[Path, list[str]] = {}
    for relpath in files:
        if not relpath.endswith((".cpp", ".cc")):
            continue
        p = Path(relpath)
        if not any(
            str(p).startswith(scope + "/") for scope in config.cmake_scope
        ):
            continue
        dirs.setdefault(p.parent, []).append(p.name)
    for d, names in sorted(dirs.items()):
        cmake = root / d / "CMakeLists.txt"
        if not cmake.is_file():
            yield Finding(
                "O002",
                (d / "CMakeLists.txt").as_posix(),
                1,
                f"directory holds {len(names)} .cpp file(s) but no "
                "CMakeLists.txt; sources here would silently not build",
            )
            continue
        text = cmake.read_text(encoding="utf-8")
        for name in sorted(names):
            # Either the literal file name or its stem as a whole word (the
            # test/bench helper macros expand `${name}.cpp`).
            stem = Path(name).stem
            if name not in text and not re.search(
                rf"\b{re.escape(stem)}\b", text
            ):
                yield Finding(
                    "O002",
                    (d / name).as_posix(),
                    1,
                    f"{name} is not referenced by {d}/CMakeLists.txt: it "
                    "would not be compiled, tested, or clang-tidied",
                )


def check_o003_project(root: Path, files: dict[str, "FileContext"], config):
    """Every registered observability coupling keeps its hook site."""
    by_file: dict[str, list] = {}
    for coupling in getattr(config, "couplings", ()):
        by_file.setdefault(coupling.file, []).append(coupling)
    for relpath, couplings in sorted(by_file.items()):
        ctx = files.get(relpath)
        if ctx is None:
            path = root / relpath
            if not path.is_file():
                yield Finding(
                    "O003",
                    relpath,
                    1,
                    "registered coupling file is missing; update the "
                    "couplings registry in tools/mfbo_lint/config.py",
                )
                continue
            tokens, _ = lex(path.read_text(encoding="utf-8"))
        else:
            tokens = ctx.tokens
        values = [t.value for t in tokens]
        for coupling in couplings:
            run = coupling.token.split()
            if not any(
                values[i : i + len(run)] == run
                for i in range(len(values) - len(run) + 1)
            ):
                yield Finding(
                    "O003",
                    relpath,
                    1,
                    f"observability hook `{coupling.token}` no longer "
                    f"appears in this file: {coupling.why}",
                )


RULES: list[Rule] = []
PROJECT_RULES = [
    ProjectRule("O001", "hot-path-span-coverage", check_o001_project),
    ProjectRule("O002", "cmake-source-coverage", check_o002_project),
    ProjectRule("O003", "observability-coupling", check_o003_project),
]
