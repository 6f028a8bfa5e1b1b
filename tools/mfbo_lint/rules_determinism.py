"""D-rules: determinism.

Same seed, same bytes, at any thread count — the property every Table-1
comparison rests on. These rules ban the constructs that historically break
it: ambient randomness, wall-clock reads feeding results, iteration order
of hash containers, threads outside the deterministic pool, and hidden
process-wide mutable state.
"""

from __future__ import annotations

from mfbo_lint.engine import FileContext, Finding, Rule

_RNG_BANNED = {
    "rand": "use linalg::Rng (seeded, reproducible)",
    "srand": "use linalg::Rng (seeded, reproducible)",
    "rand_r": "use linalg::Rng (seeded, reproducible)",
    "drand48": "use linalg::Rng (seeded, reproducible)",
    "random_device": "nondeterministic entropy; seed linalg::Rng instead",
}

_CLOCK_BANNED = {
    "steady_clock",
    "system_clock",
    "high_resolution_clock",
    "clock_gettime",
    "gettimeofday",
    "time",
    "clock",
}

_THREAD_BANNED = {
    "thread": "std::thread",
    "jthread": "std::jthread",
    "async": "std::async",
}


def _is_std_qualified(tokens, i) -> bool:
    """True when tokens[i] is preceded by `std ::` (or `chrono ::`)."""
    if i >= 2 and tokens[i - 1].kind == "punct" and tokens[i - 1].value == ":":
        if tokens[i - 2].kind == "punct" and tokens[i - 2].value == ":":
            j = i - 3
            return j >= 0 and tokens[j].kind == "id" and (
                tokens[j].value in {"std", "chrono"}
            )
    return False


def _called(tokens, i) -> bool:
    return (
        i + 1 < len(tokens)
        and tokens[i + 1].kind == "punct"
        and tokens[i + 1].value == "("
    )


def check_d001(ctx: FileContext):
    """Ambient randomness outside linalg::Rng."""
    if ctx.config.allowed(ctx.relpath, ctx.config.rng_allowed):
        return
    for i, t in enumerate(ctx.tokens):
        if t.kind != "id" or t.value not in _RNG_BANNED:
            continue
        if t.value == "random_device":
            if not _is_std_qualified(ctx.tokens, i):
                continue  # a local identifier, not std::random_device
        elif not _called(ctx.tokens, i):
            continue  # e.g. a variable named `rand`
        yield Finding(
            "D001",
            ctx.relpath,
            t.line,
            f"banned random source `{t.value}`: {_RNG_BANNED[t.value]}",
        )


def check_d002(ctx: FileContext):
    """Wall-clock reads outside telemetry/spans/bench timing."""
    if ctx.config.allowed(ctx.relpath, ctx.config.clock_allowed):
        return
    for i, t in enumerate(ctx.tokens):
        if t.kind != "id" or t.value not in _CLOCK_BANNED:
            continue
        if t.value in {"time", "clock"}:
            # Only the C library calls `time(...)` / `clock()`; `time` and
            # `clock` as member/variable names are common and fine.
            if not _called(ctx.tokens, i):
                continue
            prev = ctx.tokens[i - 1] if i > 0 else None
            if prev and prev.kind == "punct" and prev.value in {".", ">"}:
                continue  # member call, not the libc function
            if not (_is_std_qualified(ctx.tokens, i) or prev is None
                    or prev.kind == "punct" or prev.kind == "pp"
                    or prev.value in {"return", "=", ",", "("}):
                continue
        elif t.value.endswith("_clock"):
            if not _is_std_qualified(ctx.tokens, i):
                continue
        yield Finding(
            "D002",
            ctx.relpath,
            t.line,
            f"wall-clock read `{t.value}` outside the telemetry/spans/bench "
            "timing layer; results must not depend on time",
        )


def _harvest_unordered_names(tokens) -> set[str]:
    """Names declared with std::unordered_{map,set} (vars, members,
    aliases) in this token stream."""
    names: set[str] = set()
    aliases: set[str] = set()
    for i, t in enumerate(tokens):
        if t.kind == "id" and t.value in {"unordered_map", "unordered_set"}:
            j = i + 1
            if j < len(tokens) and tokens[j].kind == "punct" and tokens[j].value == "<":
                depth = 0
                while j < len(tokens):
                    v = tokens[j].value if tokens[j].kind == "punct" else ""
                    if v == "<":
                        depth += 1
                    elif v == ">":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    j += 1
            if j < len(tokens) and tokens[j].kind == "id":
                names.add(tokens[j].value)
        if t.kind == "id" and t.value == "using" and i + 2 < len(tokens):
            # `using Alias = std::unordered_map<...>;`
            if tokens[i + 1].kind == "id":
                rest = tokens[i + 2 : i + 12]
                if any(
                    r.kind == "id"
                    and r.value in {"unordered_map", "unordered_set"}
                    for r in rest
                ):
                    aliases.add(tokens[i + 1].value)
    # Variables declared with an alias type: `Alias name;` — one lookahead.
    for i, t in enumerate(tokens):
        if t.kind == "id" and t.value in aliases and i + 1 < len(tokens):
            nxt = tokens[i + 1]
            if nxt.kind == "id":
                names.add(nxt.value)
    return names


def check_d003(ctx: FileContext):
    """Iteration over unordered containers (order feeds output)."""
    names = _harvest_unordered_names(ctx.tokens)
    if ctx.header_tokens is not None:
        names |= _harvest_unordered_names(ctx.header_tokens)
    if not names:
        return
    tokens = ctx.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.value not in names:
            continue
        # `name.begin()` / `name.cbegin()` — iterator walk.
        if (
            i + 2 < n
            and tokens[i + 1].kind == "punct"
            and tokens[i + 1].value == "."
            and tokens[i + 2].kind == "id"
            and tokens[i + 2].value in {"begin", "cbegin", "rbegin"}
        ):
            yield Finding(
                "D003",
                ctx.relpath,
                t.line,
                f"iteration over unordered container `{t.value}`: hash order "
                "is implementation-defined; copy to a sorted container first",
            )
            continue
        # Range-for: `: name)` with a `for (` behind on the same statement.
        if (
            i >= 1
            and tokens[i - 1].kind == "punct"
            and tokens[i - 1].value == ":"
            and i + 1 < n
            and tokens[i + 1].kind == "punct"
            and tokens[i + 1].value == ")"
        ):
            j = i - 2
            hops = 0
            while j >= 0 and hops < 40:
                if tokens[j].kind == "id" and tokens[j].value == "for":
                    yield Finding(
                        "D003",
                        ctx.relpath,
                        t.line,
                        f"range-for over unordered container `{t.value}`: "
                        "hash order is implementation-defined; copy to a "
                        "sorted container first",
                    )
                    break
                if tokens[j].kind == "punct" and tokens[j].value in {";", "{", "}"}:
                    break
                j -= 1
                hops += 1


def check_d004(ctx: FileContext):
    """Raw threading outside common/parallel (the deterministic pool)."""
    if ctx.config.allowed(ctx.relpath, ctx.config.thread_allowed):
        return
    tokens = ctx.tokens
    for i, t in enumerate(tokens):
        if t.kind == "pp":
            text = " ".join(t.value.split())
            if text.startswith("# pragma omp") or text.startswith("#pragma omp"):
                yield Finding(
                    "D004",
                    ctx.relpath,
                    t.line,
                    "OpenMP pragma: use parallel::parallelFor (deterministic "
                    "pool with ordered reductions)",
                )
            continue
        if t.kind != "id" or t.value not in _THREAD_BANNED:
            continue
        if not _is_std_qualified(tokens, i):
            continue
        # `std::thread::hardware_concurrency()` is a read, but still only
        # the pool may size itself from it; keep it banned here.
        yield Finding(
            "D004",
            ctx.relpath,
            t.line,
            f"raw `{_THREAD_BANNED[t.value]}` outside src/common/parallel: "
            "use parallel::parallelFor / parallelMap (deterministic, "
            "exception-ordered, MFBO_THREADS-aware)",
        )


_TELEMETRY_HANDLES = {"Counter"}


def check_d005(ctx: FileContext):
    """Mutable static / global state in src/ (outside common/)."""
    if not ctx.config.allowed(ctx.relpath, ctx.config.static_scope):
        return
    if ctx.config.allowed(ctx.relpath, ctx.config.static_allowed):
        return
    tokens = ctx.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.value not in {"static", "thread_local"}:
            continue
        # Examine the declaration up to `; = ( {`.
        j = i + 1
        decl: list = []
        while j < n and len(decl) < 24:
            tj = tokens[j]
            if tj.kind == "punct" and tj.value in {";", "=", "(", "{"}:
                break
            decl.append(tj)
            j += 1
        terminator = tokens[j].value if j < n and tokens[j].kind == "punct" else ""
        words = [d.value for d in decl if d.kind == "id"]
        if terminator == "(":
            continue  # function declaration/definition
        if "const" in words or "constexpr" in words or "constinit" in words:
            continue
        if not decl:
            continue
        # Interned telemetry handles (`static telemetry::Counter& c = ...`)
        # were once the documented idiom, but scoped registries made them a
        # bug: the static binds the registry active at FIRST call forever,
        # leaking one session's counters into every later session. They get
        # a targeted message instead of an exemption.
        if (
            "telemetry" in words
            and any(w in _TELEMETRY_HANDLES for w in words)
            and any(d.kind == "punct" and d.value == "&" for d in decl)
        ):
            yield Finding(
                "D005",
                ctx.relpath,
                t.line,
                f"`{t.value}` telemetry handle pins the registry active at "
                "first call across every later TelemetryScope; look the "
                "handle up per call (function-local reference) instead",
            )
            continue
        yield Finding(
            "D005",
            ctx.relpath,
            t.line,
            f"mutable `{t.value}` state (`{' '.join(words[:4])}`): hidden "
            "process-wide state breaks same-seed reproducibility; thread it "
            "through an object or move it behind src/common",
        )


RULES = [
    Rule("D001", "banned-random-source", check_d001),
    Rule("D002", "wall-clock-read", check_d002),
    Rule("D003", "unordered-iteration", check_d003),
    Rule("D004", "raw-threading", check_d004),
    Rule("D005", "mutable-static-state", check_d005),
]
