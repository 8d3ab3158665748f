#!/usr/bin/env python3
"""Project lint rules clang-tidy cannot express (see DESIGN.md S21).

Rules (scanned over src/*.h, src/*.cc):

  raw-sync         std::mutex / std::condition_variable / std::lock_guard /
                   std::unique_lock / std::scoped_lock / std::shared_mutex are
                   banned outside common/thread_annotations.h. The shim types
                   (payg::Mutex, MutexLock, UniqueLock, CondVar) carry the
                   thread-safety capability attributes; a raw std primitive is
                   invisible to the analysis.

  unguarded-mutex  Every declared payg::Mutex must be referenced by at least
                   one thread-safety annotation (GUARDED_BY / PT_GUARDED_BY /
                   REQUIRES / ACQUIRE / RELEASE / EXCLUDES) or a CondVar
                   Wait/WaitFor call in the same file. A mutex nothing is
                   annotated against protects nothing the analysis can check.

  raw-getenv       getenv is banned outside common/env.{h,cc}; every knob
                   goes through the strict EnvLong/EnvFlag/EnvRaw helpers.

  metric-name      String literals passed to counter("...") / gauge("...") /
                   histogram("...") must follow the DESIGN.md §6 scheme:
                   "<layer>.<metric>" with layer one of storage, cache, rm,
                   exec, query, io, buffer, obs (a literal that is a prefix
                   of a concatenated name is checked as a prefix). The check
                   is two-way against the fenced §6 metric inventory: every
                   registered (name, kind) must appear there, and every
                   inventory row must still be registered somewhere in src/
                   — so the table can neither lag the code nor outlive it.
                   Dynamic names use a <k> placeholder in the table.
                   Field tables: a name stringized from an X-macro
                   parameter ("query." #name) registers "<prefix><row>"
                   for every row X(<row>, ...) of the field table
                   (`#define <TABLE>(X)`) that the file expands next, and
                   each generated name is checked both ways like a
                   literal; a missing row is reported at the row.

A dropped Status / Result<T> is not a lint rule: [[nodiscard]] with
-Werror=unused-result rejects the plain form at compile time, and
scripts/payg_analyzer.py's status-swallow rule owns the (void)-cast,
ternary and comma forms.

Any rule can be suppressed for one line with `// lint:allow(<rule>)` on that
line; the suppression is expected to sit next to a justifying comment.

Usage:
  scripts/lint.py               lint the tree (exit 1 on findings)
  scripts/lint.py --self-test   run the rules over scripts/lint_fixtures/
                                and verify every seeded violation is flagged
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

METRIC_LAYERS = ("storage", "cache", "rm", "exec", "query", "io", "buffer",
                 "obs", "codec", "profile", "server")

RAW_SYNC_RE = re.compile(
    r"std::(mutex|condition_variable(_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_mutex|shared_lock)\b")
MUTEX_DECL_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;", re.M)
GETENV_RE = re.compile(r"\bgetenv\s*\(")
METRIC_RE = re.compile(
    r"\b(counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"\s*([+)#]?)")
FIELD_TABLE_RE = re.compile(r"^\s*#\s*define\s+(\w+)\(X\)((?:.*\\\n)*.*)",
                            re.M)
FIELD_ROW_RE = re.compile(r"\bX\(\s*(\w+)")
INVENTORY_ROW_RE = re.compile(
    r"^\|\s*`([^`]+)`\s*\|\s*(counter|gauge|histogram)\s*\|", re.M)
INVENTORY_BEGIN = "<!-- metric-inventory:begin -->"
INVENTORY_END = "<!-- metric-inventory:end -->"
ALLOW_RE = re.compile(r"lint:allow\(([a-z\-]+)\)")


def source_files(root):
    return sorted(p for p in root.rglob("*")
                  if p.suffix in (".h", ".cc") and p.is_file())


def allowed(line, rule):
    return any(m == rule for m in ALLOW_RE.findall(line))


def parse_metric_inventory(path):
    """name -> (kind, lineno) from the fenced DESIGN.md §6 inventory table."""
    text = path.read_text()
    begin = text.index(INVENTORY_BEGIN)
    end = text.index(INVENTORY_END)
    inventory = {}
    for m in INVENTORY_ROW_RE.finditer(text, begin, end):
        lineno = text[:m.start()].count("\n") + 1
        inventory[m.group(1)] = (m.group(2), lineno)
    return inventory


def field_tables(paths):
    """X-macro field tables: table -> [(row, path, lineno)]."""
    tables = {}
    for path in paths:
        text = path.read_text()
        for m in FIELD_TABLE_RE.finditer(text):
            rows = tables.setdefault(m.group(1), [])
            for r in FIELD_ROW_RE.finditer(text, m.start(2), m.end(2)):
                rows.append((r.group(1), path,
                             text[:r.start()].count("\n") + 1))
    return tables


def expanded_table(lines, lineno, tables):
    """The first field table expanded at or after line `lineno`."""
    for line in lines[lineno - 1:]:
        for m in re.finditer(r"\b(\w+)\(\s*\w+\s*\)", line):
            if m.group(1) in tables:
                return m.group(1)
    return None


def check_metric(kind, name, is_prefix, where, findings, inventory, used):
    rel, lineno = where
    ok = re.fullmatch(
        r"(?:%s)\.[a-z0-9_.]+" % "|".join(METRIC_LAYERS), name)
    if not ok:
        findings.append((rel, lineno, "metric-name",
                         f'metric name "{name}" does not follow the '
                         "DESIGN.md §6 <layer>.<metric> scheme"))
    if used is not None:
        used.add((name, is_prefix))
    if inventory is None:
        return
    if is_prefix:
        listed = any(iname.startswith(name) and ikind == kind
                     for iname, (ikind, _) in inventory.items())
    else:
        listed = (name in inventory and inventory[name][0] == kind)
    if not listed:
        findings.append((rel, lineno, "metric-name",
                         f'{kind} "{name}" is missing from the '
                         "DESIGN.md §6 metric inventory (or is "
                         "listed with a different kind)"))


def check_file(path, text, findings, inventory=None, used=None,
               tables=None):
    rel = path.relative_to(REPO)
    lines = text.splitlines()
    is_shim = path.name == "thread_annotations.h"
    is_env = path.parent.name == "common" and path.stem == "env"

    for lineno, line in enumerate(lines, 1):
        if not is_shim and RAW_SYNC_RE.search(line) and not allowed(
                line, "raw-sync"):
            findings.append((rel, lineno, "raw-sync",
                             "raw std synchronization primitive; use the "
                             "payg shims from common/thread_annotations.h"))
        if not is_env and GETENV_RE.search(line) and not allowed(
                line, "raw-getenv"):
            findings.append((rel, lineno, "raw-getenv",
                             "raw getenv; use EnvLong/EnvFlag/EnvRaw from "
                             "common/env.h"))
        for kind, name, trail in METRIC_RE.findall(line):
            if allowed(line, "metric-name"):
                continue
            if trail == "#":
                # A stringized field name: one exact name per row of the
                # field table this file expands next, each checked at its
                # row.
                table = expanded_table(lines, lineno, tables or {})
                if table is None:
                    findings.append((rel, lineno, "metric-name",
                                     f'"{name}" #field expands no field '
                                     "table (#define <TABLE>(X)) below it"))
                    continue
                for row, row_path, row_lineno in tables[table]:
                    check_metric(kind, name + row, False,
                                 (row_path.relative_to(REPO), row_lineno),
                                 findings, inventory, used)
                continue
            # A concatenated name ("cache.shard" + ...) is validated as a
            # prefix: the layer and the dotted shape must already be right.
            check_metric(kind, name, trail == "+", (rel, lineno), findings,
                         inventory, used)

    if not is_shim:
        for m in MUTEX_DECL_RE.finditer(text):
            name = m.group(1)
            lineno = text[:m.start()].count("\n") + 1
            decl_line = lines[lineno - 1]
            if allowed(decl_line, "unguarded-mutex"):
                continue
            evidence = re.compile(
                r"(GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
                r"EXCLUDES)\s*\(\s*[\w.\->]*\b%s\b|Wait(For)?\s*\(\s*%s\b"
                % (re.escape(name), re.escape(name)))
            if not evidence.search(text):
                findings.append((rel, lineno, "unguarded-mutex",
                                 f"Mutex {name} has no GUARDED_BY/REQUIRES/"
                                 "ACQUIRE annotation (or CondVar wait) "
                                 "anywhere in this file"))


def run(root, inventory=None):
    findings = []
    used = set()
    paths = source_files(root)
    tables = field_tables(paths)
    for path in paths:
        check_file(path, path.read_text(), findings,
                   inventory=inventory, used=used, tables=tables)
    if inventory is not None:
        # Reverse direction: every inventory row must still be registered.
        # A dynamic registration ("cache.shard" + ...) covers the rows it
        # prefixes (e.g. `cache.shard<k>.pages`).
        for iname, (ikind, lineno) in sorted(inventory.items()):
            covered = any(iname == u or (dyn and iname.startswith(u))
                          for u, dyn in used)
            if not covered:
                findings.append(
                    (Path("DESIGN.md"), lineno, "metric-name",
                     f'inventory row "{iname}" ({ikind}) is not registered '
                     "anywhere under the scanned tree — remove the row or "
                     "restore the metric"))
    return findings


def main():
    if "--self-test" in sys.argv:
        # Every seeded (file, rule) pair below must be flagged, and the
        # clean fixture must stay clean — so the linter cannot silently rot.
        expected = {
            ("bad_mutex.h", "unguarded-mutex"),
            ("bad_mutex.h", "raw-sync"),
            ("bad_getenv.cc", "raw-getenv"),
            ("bad_metric.cc", "metric-name"),
            # A field-table row missing from the inventory.
            ("bad_table.h", "metric-name"),
            # The stale inventory row below must be flagged in the reverse
            # direction of the two-way metric check.
            ("DESIGN.md", "metric-name"),
        }
        fixture_inventory = {
            "cache.fixture_touches": ("counter", 1),
            "cache.fixture_stale": ("gauge", 2),
            # Registered only through clean.cc's field table.
            "cache.fixture_generated": ("counter", 3),
        }
        findings = run(FIXTURES, inventory=fixture_inventory)
        got = {(str(rel.name), rule) for rel, _, rule, _ in findings}
        missing = expected - got
        unexpected = {g for g in got
                      if g not in expected and g[0] != "clean.cc"}
        clean_hits = [f for f in findings if f[0].name == "clean.cc"]
        # Exactly the stale row is unregistered: a generated name that the
        # linter failed to derive would show up here too.
        stale = {msg.split('"')[1] for rel, _, _, msg in findings
                 if rel.name == "DESIGN.md"}
        ok = (not missing and not unexpected and not clean_hits
              and stale == {"cache.fixture_stale"})
        for rel, lineno, rule, msg in findings:
            print(f"{rel}:{lineno}: [{rule}] {msg}")
        if missing:
            print(f"self-test FAILED: seeded violations not flagged: "
                  f"{sorted(missing)}")
        if unexpected:
            print(f"self-test FAILED: unexpected findings: "
                  f"{sorted(unexpected)}")
        if clean_hits:
            print("self-test FAILED: clean.cc was flagged")
        if stale != {"cache.fixture_stale"}:
            print(f"self-test FAILED: unregistered inventory rows "
                  f"{sorted(stale)}, expected only cache.fixture_stale")
        print("self-test " + ("OK" if ok else "FAILED"))
        return 0 if ok else 1

    findings = run(SRC, inventory=parse_metric_inventory(REPO / "DESIGN.md"))
    for rel, lineno, rule, msg in findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"lint.py: {len(findings)} finding(s)")
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
