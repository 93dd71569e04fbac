#!/usr/bin/env python3
"""snipr-lint: repo-specific static checks for house invariants.

Off-the-shelf tools know nothing about this repo's two load-bearing
properties — byte-identical JSON at any thread/shard count, and an
allocation-free simulation hot path. This lint encodes the rules that
protect them, as token-level checks over the same file set the compile
database covers (headers under include/ are added explicitly, since
they are not translation units).

Rules (ids are stable; use them in suppressions):

* ``hotpath-std-function`` — no ``std::function`` (or ``<functional>``
  include) inside the sim/ node/ radio/ hot-path directories. A node's
  timers there hold plain members, not closures: std::function
  heap-allocates past its small-buffer size, which silently
  reintroduces a per-event malloc/free pair on the node's loop.
* ``unordered-json-iteration`` — no range-for / ``.begin()`` iteration
  over a ``std::unordered_map``/``unordered_set`` in any file that
  emits JSON (includes core/json_writer.hpp, calls ``json::…`` or
  defines ``to_json``). Unordered iteration order is
  implementation-defined and seed-dependent — bytes written from it
  can never be golden-stable.
* ``ambient-randomness`` — no ``rand()``/``std::random_device``/
  wall-clock reads (``system_clock``, ``steady_clock``, ``time(…)``,
  ``gettimeofday``, ``clock_gettime``, ``clock()``) anywhere in
  include/ or src/. All randomness must flow from seeded ``sim::Rng``
  streams; all time from the simulated clock. (bench/, tests/ and
  tools/ legitimately measure wall time and are out of scope.)
* ``raw-variance-accumulation`` — no ``acc += x * x`` (or
  ``+= pow(x, 2)``) second-moment accumulation loops in include/ or
  src/. Naive sum-of-squares cancels catastrophically (the PR 3 fleet
  ζ-variance bug); use ``stats::OnlineStats``.
* ``censored-feedback`` — the learner family (rush_hour_learner,
  adaptive_snip_rh, exploration_policy, snip_rh, snip_at, scheduler —
  library code under include/ and src/) must never touch ground-truth
  arrival state: no ``ContactSchedule``/``ArrivalProfile``/
  ``make_schedule``/``.contacts(``/``active_contact``/
  ``radio::Channel``. Learners see the world only through
  ``Scheduler::on_probe_detected`` / ``on_contact_probed`` — feeding
  them truth a real node cannot observe silently un-censors the whole
  evaluation (the bug class this PR's regret bench exists to catch).
  The fault plane (``src/fault``, ``include/snipr/fault``) is held to
  the same bar: injectors perturb *observations* the engine hands
  them, so ground-truth arrival structure leaking in would let a
  fault draw depend on what the node was never allowed to see.
  Clairvoyant benchmark code is exempt when the file carries a
  ``// snipr-lint: oracle-file <why>`` marker.
* ``fault-stream-discipline`` — no direct seeded ``sim::Rng``
  construction inside the fault plane. Injector streams must be
  forked from the FaultPlan root in node order, before any
  partitioning, or byte-identical-at-any-shard-count gains a second,
  unforked seed to drift on. The single legitimate
  root seeding in the plan constructor carries a justified
  ``allow()``.
* ``nolint-justification`` — every ``NOLINT``/``NOLINTNEXTLINE`` and
  every ``snipr-lint: allow(...)`` must carry a written justification
  (trailing text, or a comment within the three lines above). A bare
  suppression is a rule deleted without review.

Suppression: ``// snipr-lint: allow(<rule-id>) <justification>`` on
the offending line, or on its own line directly above. The
justification is mandatory.

Exit status: 0 = clean, 1 = findings, 2 = usage error. ``--self-test``
runs the rules over tools/lint_fixtures/ (one planted violation per
rule) and asserts each rule fires exactly where planted and nowhere
else.
"""

import argparse
import json
import re
import sys
from pathlib import Path

HOTPATH_RE = re.compile(r"^(src|include/snipr)/(sim|node|radio)/")
LIBRARY_RE = re.compile(r"^(src|include)/")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
SCAN_DIRS = ("include", "src", "tools", "bench", "tests")

ALLOW_RE = re.compile(r"//\s*snipr-lint:\s*allow\((?P<rule>[\w-]+)\)\s*(?P<why>.*)")
NOLINT_RE = re.compile(r"//.*\bNOLINT(NEXTLINE)?(\([^)]*\))?(?P<rest>.*)")
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<[^;{}()]*?>\s+(\w+)\s*[;{=(,]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*[&\s]:\s*(\w+)\s*\)")
ITER_FOR_RE = re.compile(r"=\s*(\w+)\s*\.\s*(?:begin|cbegin)\s*\(")
STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\b")
FUNCTIONAL_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*<functional>")
JSON_EMITTER_RE = re.compile(r"json_writer\.hpp|\bjson\s*::\s*\w|\bto_json\s*\(")
AMBIENT_RES = [
    (re.compile(r"\bstd\s*::\s*random_device\b|(?<!:)\brandom_device\b"),
     "std::random_device is nondeterministic; fork a seeded sim::Rng stream"),
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "rand()/srand() is ambient global state; fork a seeded sim::Rng stream"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock reads break replayability; use the simulated clock"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() is a wall-clock read; use the simulated clock"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("),
     "wall-clock reads break replayability; use the simulated clock"),
    (re.compile(r"(?<![\w.:])clock\s*\(\s*\)"),
     "clock() is ambient process state; use the simulated clock"),
]
# Learner-family library files (any stem containing one of the module
# names, so planted fixtures like planted_rush_hour_learner.cpp are in
# scope too). bench/ and tests/ may read ground truth freely — they ARE
# the oracle side of the experiment.
CENSORED_SCOPE_RE = re.compile(
    r"^(src|include/snipr)/((core|node)/\w*"
    r"(rush_hour_learner|adaptive_snip_rh|exploration_policy"
    r"|snip_rh|snip_at|scheduler)\w*|fault/\w+)\.(cpp|hpp|h|cc)$")
ORACLE_MARK_RE = re.compile(r"//\s*snipr-lint:\s*oracle-file\b")
CENSORED_TOKEN_RES = [
    (re.compile(r"\bContactSchedule\b"), "ContactSchedule"),
    (re.compile(r"\bArrivalProfile\b"), "ArrivalProfile"),
    (re.compile(r"\bmake_schedule\b"), "make_schedule"),
    (re.compile(r"\.\s*contacts\s*\("), ".contacts()"),
    (re.compile(r"\bactive_contact\b"), "active_contact"),
    (re.compile(r"\bradio\s*::\s*Channel\b"), "radio::Channel"),
]
# Fault-plane stream discipline: the only way randomness may enter
# fault:: is the plan root forking per-node injector streams, so a
# brace-construction of sim::Rng from a seed expression is the tell.
# (Parameter/member declarations and fork() assignments don't match.)
FAULT_SCOPE_RE = re.compile(r"^(src|include/snipr)/fault/")
FAULT_RNG_CTOR_RE = re.compile(r"\bsim\s*::\s*Rng\s+\w+\s*\{|\bsim\s*::\s*Rng\s*\{")
SQUARE_ACCUM_RE = re.compile(
    r"\+=\s*(?P<f>[A-Za-z_]\w*(?:(?:\.|->)\w+)*(?:\(\))?)\s*\*\s*(?P=f)(?![\w.])")
POW_ACCUM_RE = re.compile(
    r"\+=\s*(?:std\s*::\s*)?pow[f]?\s*\([^,]+,\s*2(?:\.0*)?\s*\)")

RULE_IDS = (
    "hotpath-std-function",
    "unordered-json-iteration",
    "ambient-randomness",
    "raw-variance-accumulation",
    "censored-feedback",
    "fault-stream-discipline",
    "nolint-justification",
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines):
    """Per-line source text with comments and string literals blanked.

    Line count and column positions are preserved (blanked with
    spaces). #include lines are passed through untouched so
    header-path matching keeps working. Char literals, raw strings and
    line continuations inside literals are rare enough here to accept
    as heuristic gaps — this is a tripwire, not a parser.
    """
    out = []
    in_block = False
    for raw in lines:
        if not in_block and raw.lstrip().startswith("#include"):
            out.append(raw)
            continue
        chars = []
        i = 0
        quote = None
        while i < len(raw):
            c = raw[i]
            nxt = raw[i + 1] if i + 1 < len(raw) else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    chars.append("  ")
                    i += 2
                else:
                    chars.append(" ")
                    i += 1
            elif quote:
                if c == "\\":
                    chars.append("  ")
                    i += 2
                elif c == quote:
                    quote = None
                    chars.append(c)
                    i += 1
                else:
                    chars.append(" ")
                    i += 1
            elif c in "\"'":
                quote = c
                chars.append(c)
                i += 1
            elif c == "/" and nxt == "/":
                chars.append(" " * (len(raw) - i))
                break
            elif c == "/" and nxt == "*":
                in_block = True
                chars.append("  ")
                i += 2
            else:
                chars.append(c)
                i += 1
        out.append("".join(chars))
    return out


def collect_suppressions(lines):
    """rule-id -> set of 1-based line numbers the allow() covers.

    A trailing allow covers its own line; an allow on its own line
    covers the next line. Returns (suppressions, naked) where naked
    lists (line, rule) allows lacking a justification.
    """
    suppressed = {}
    naked = []
    for idx, raw in enumerate(lines, start=1):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        rule = m.group("rule")
        why = m.group("why").strip()
        if len(why) < 8:
            naked.append((idx, rule))
        covered = {idx}
        if raw.lstrip().startswith("//"):
            # Standalone allow() covers the next code line, skipping the
            # rest of its own (possibly wrapped) comment.
            target = idx + 1
            while target <= len(lines) and \
                    lines[target - 1].lstrip().startswith("//"):
                covered.add(target)
                target += 1
            covered.add(target)
        suppressed.setdefault(rule, set()).update(covered)
    return suppressed, naked


def is_comment_line(raw):
    s = raw.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*")


def check_file(rel, raw_lines, findings):
    rel_posix = rel.replace("\\", "/")
    stripped = strip_comments_and_strings(raw_lines)
    suppressed, naked = collect_suppressions(raw_lines)

    def emit(line_no, rule, message):
        if line_no in suppressed.get(rule, ()):  # justified allow()
            return
        findings.append(Finding(rel_posix, line_no, rule, message))

    for line_no, rule in naked:
        findings.append(Finding(
            rel_posix, line_no, "nolint-justification",
            f"snipr-lint: allow({rule}) without a written justification"))

    # nolint-justification: NOLINT must explain itself nearby.
    for idx, raw in enumerate(raw_lines, start=1):
        m = NOLINT_RE.search(raw)
        if not m or "snipr-lint" in raw:
            continue
        rest = m.group("rest").strip(" :;-—")
        justified = len(rest) >= 8
        if not justified:
            above = raw_lines[max(0, idx - 4):idx - 1]
            justified = any(is_comment_line(a) and len(a.strip()) >= 10
                            for a in above)
        if not justified:
            emit(idx, "nolint-justification",
                 "NOLINT without a written justification (trailing text or "
                 "a comment in the 3 lines above)")

    # hotpath-std-function: sim/ node/ radio/ hold no std::function.
    if HOTPATH_RE.match(rel_posix):
        for idx, line in enumerate(stripped, start=1):
            if STD_FUNCTION_RE.search(line):
                emit(idx, "hotpath-std-function",
                     "std::function in a hot-path directory heap-allocates "
                     "per closure; hot-path timers hold plain members")
            elif FUNCTIONAL_INCLUDE_RE.match(line):
                emit(idx, "hotpath-std-function",
                     "<functional> include in a hot-path directory; "
                     "hot-path timers hold plain members")

    # unordered-json-iteration: nondeterministic order must never reach
    # an emitter.
    text = "\n".join(stripped)
    if JSON_EMITTER_RE.search(text):
        unordered_ids = set(UNORDERED_DECL_RE.findall(text))
        if unordered_ids:
            for idx, line in enumerate(stripped, start=1):
                for pat in (RANGE_FOR_RE, ITER_FOR_RE):
                    m = pat.search(line)
                    if m and m.group(1) in unordered_ids:
                        emit(idx, "unordered-json-iteration",
                             f"iterating unordered container '{m.group(1)}' "
                             "in a JSON-emitting file; order is "
                             "seed-dependent — sort into a vector first")

    # censored-feedback: the learner family must only see detections.
    if CENSORED_SCOPE_RE.match(rel_posix) and not any(
            ORACLE_MARK_RE.search(raw) for raw in raw_lines):
        for idx, line in enumerate(stripped, start=1):
            for pat, token in CENSORED_TOKEN_RES:
                if pat.search(line):
                    emit(idx, "censored-feedback",
                         f"learner code touching ground truth ({token}); "
                         "a real node only observes detections — feed it "
                         "via Scheduler::on_probe_detected, or mark a "
                         "clairvoyant benchmark with "
                         "'// snipr-lint: oracle-file <why>'")

    # fault-stream-discipline: randomness enters fault:: once, at the
    # plan root; everything else forks.
    if FAULT_SCOPE_RE.match(rel_posix):
        for idx, line in enumerate(stripped, start=1):
            if FAULT_RNG_CTOR_RE.search(line):
                emit(idx, "fault-stream-discipline",
                     "direct sim::Rng construction in the fault plane; "
                     "injector streams must be forked from the FaultPlan "
                     "root in node order, or shard/thread count can "
                     "realign the draws")

    # Library-only rules.
    if LIBRARY_RE.match(rel_posix):
        for idx, line in enumerate(stripped, start=1):
            for pat, message in AMBIENT_RES:
                if pat.search(line):
                    emit(idx, "ambient-randomness", message)
            if SQUARE_ACCUM_RE.search(line) or POW_ACCUM_RE.search(line):
                emit(idx, "raw-variance-accumulation",
                     "raw sum-of-squares accumulation cancels "
                     "catastrophically; use stats::OnlineStats")


def gather_files(root, compile_db):
    """Scanned file set: compile-db TUs under root + globbed sources."""
    files = set()
    if compile_db is not None:
        try:
            entries = json.loads(Path(compile_db).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            print(f"error: cannot read compile db {compile_db}: {err}",
                  file=sys.stderr)
            sys.exit(2)
        for entry in entries:
            path = Path(entry["directory"], entry["file"]).resolve()
            if path.suffix in SOURCE_SUFFIXES and path.is_relative_to(root):
                files.add(path)
    for sub in SCAN_DIRS:
        base = root / sub
        if base.is_dir():
            for path in base.rglob("*"):
                if path.suffix in SOURCE_SUFFIXES and path.is_file():
                    files.add(path.resolve())
    fixtures = (root / "tools" / "lint_fixtures").resolve()
    return sorted(p for p in files if not p.is_relative_to(fixtures))


def run_lint(root, compile_db):
    findings = []
    files = gather_files(root, compile_db)
    if not files:
        print(f"error: no sources found under {root}", file=sys.stderr)
        sys.exit(2)
    for path in files:
        rel = str(path.relative_to(root))
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        check_file(rel, lines, findings)
    return findings, len(files)


def self_test(repo_root):
    """Each fixture plants exactly one violation; assert exact firing."""
    fixture_root = repo_root / "tools" / "lint_fixtures"
    expected = {
        ("src/sim/planted_std_function.cpp", "hotpath-std-function"),
        ("src/core/planted_json_iteration.cpp", "unordered-json-iteration"),
        ("src/core/planted_wall_clock.cpp", "ambient-randomness"),
        ("src/stats/planted_raw_variance.cpp", "raw-variance-accumulation"),
        ("src/core/planted_rush_hour_learner_peek.cpp", "censored-feedback"),
        ("src/fault/planted_fault_truth_peek.cpp", "censored-feedback"),
        ("src/fault/planted_fault_fresh_rng.cpp", "fault-stream-discipline"),
        ("src/core/planted_naked_nolint.cpp", "nolint-justification"),
    }
    findings = []
    files = sorted((fixture_root).rglob("*.cpp")) + \
        sorted((fixture_root).rglob("*.hpp"))
    for path in files:
        rel = str(path.relative_to(fixture_root))
        lines = path.read_text(encoding="utf-8").splitlines()
        check_file(rel, lines, findings)
    got = {(f.path, f.rule) for f in findings}
    ok = True
    for pair in sorted(expected - got):
        print(f"self-test FAIL: planted violation not flagged: {pair}")
        ok = False
    for pair in sorted(got - expected):
        print(f"self-test FAIL: unexpected finding: {pair}")
        ok = False
    # The clean fixtures prove a justified allow() silences its rule and
    # the oracle-file marker exempts a clairvoyant-benchmark file.
    clean_hits = [f for f in findings if "clean_" in f.path]
    if clean_hits:
        print("self-test FAIL: suppression/oracle marker not honoured:")
        for f in clean_hits:
            print(f"  {f}")
        ok = False
    if ok:
        print(f"self-test OK: {len(expected)} planted violations flagged, "
              "suppressed fixture silent")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description="repo-specific determinism/hot-path lint")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json to seed the file list")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on its planted fixture")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULE_IDS:
            print(rule)
        return 0
    root = args.root.resolve()
    if args.self_test:
        return self_test(root)

    findings, scanned = run_lint(root, args.compile_db)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\nsnipr-lint: {len(findings)} finding(s) across "
              f"{scanned} files", file=sys.stderr)
        return 1
    print(f"snipr-lint: clean ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
