#!/usr/bin/env python3
"""Docs consistency checker for the CI docs job.

Three checks, all against the working tree (no build needed):

 1. Scenario-table consistency: every scenario registered via
    BULLET_SCENARIO(...) in bench/*.cc must have a row in the README's
    "Scenarios" table, and every row must name a registered scenario.

 2. Internal markdown links: every relative link target in README.md and
    docs/*.md must exist on disk (anchors are stripped; external URLs and
    badge images are ignored).

 3. Option-table consistency: the option keys declared in
    ScenarioOptionTable() (src/harness/scenario_registry.cc) must match the
    README's "Useful flags:" list (as --key) and, for sweepable rows, its
    "Supported keys:" list, in both directions, so a removed option cannot
    linger in the docs and a new one cannot go undocumented.

Exit 0 when all pass, 1 with a FAIL line per violation otherwise.

Usage: tools/check_docs.py [repo-root]
"""

import os
import re
import sys


def registered_scenarios(root):
    names = set()
    bench = os.path.join(root, "bench")
    pat = re.compile(r"BULLET_SCENARIO\(\s*(\w+)")
    for fn in sorted(os.listdir(bench)):
        if not fn.endswith(".cc"):
            continue
        with open(os.path.join(bench, fn), encoding="utf-8") as fh:
            for m in pat.finditer(fh.read()):
                names.add(m.group(1))
    return names


def readme_table_scenarios(root):
    """Scenario names from rows of the README table whose first cell is
    a backquoted identifier, e.g. `| `fig04_overall_static` | ... |`."""
    names = set()
    pat = re.compile(r"^\|\s*`(\w+)`\s*\|")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        for line in fh:
            m = pat.match(line)
            if m:
                names.add(m.group(1))
    return names


def markdown_files(root):
    files = [os.path.join(root, "README.md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        files += [os.path.join(docs, f) for f in sorted(os.listdir(docs)) if f.endswith(".md")]
    return files


LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(root):
    failures = []
    for path in markdown_files(root):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for target in LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:  # pure in-page anchor
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, root)
                failures.append(f"FAIL {rel}: broken link -> {target}")
    return failures


OPTION_ROW = re.compile(r'\{\.key = "([a-z-]+)"')


def option_table(root):
    """(key, sweepable) per ScenarioOptionTable() row, in table order. A row
    runs from its `{.key = "..."` to the next row (the last one to the end of
    the table)."""
    path = os.path.join(root, "src", "harness", "scenario_registry.cc")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    starts = list(OPTION_ROW.finditer(text))
    rows = []
    for i, m in enumerate(starts):
        end = starts[i + 1].start() if i + 1 < len(starts) else text.find("};", m.start())
        rows.append((m.group(1), ".sweepable = true" in text[m.start():end]))
    return rows


def readme_list(text, label):
    """Backquoted tokens of the sentence that starts with `label`."""
    start = text.find(label)
    if start < 0:
        return None
    end = text.find(".", start)
    return re.findall(r"`([^`]+)`", text[start:end])


def check_options(root):
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    rows = option_table(root)
    failures = []
    if not rows:
        return ["FAIL src/harness/scenario_registry.cc: no ScenarioOptionTable() rows found"]
    for label, want in (("Useful flags:", {"--" + key for key, _ in rows}),
                        ("Supported keys:", {key for key, sweepable in rows if sweepable})):
        listed = readme_list(text, label)
        if listed is None:
            failures.append(f"FAIL README.md: no '{label}' list")
            continue
        for item in sorted(want - set(listed)):
            failures.append(f"FAIL README.md: '{label}' list lacks `{item}` from the option table")
        for item in sorted(set(listed) - want):
            failures.append(f"FAIL README.md: '{label}' list names `{item}`, which is not in the option table")
    return failures


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = []

    registered = registered_scenarios(root)
    documented = readme_table_scenarios(root)
    # The README also has backquoted-first-cell tables for the protocol
    # registry; only compare names that look like scenario rows, i.e. the
    # registered set must be a subset of documented and any documented name
    # containing "fig"/"ablation"/"churn"/"perf" must be registered.
    for name in sorted(registered - documented):
        failures.append(f"FAIL README.md: scenario `{name}` registered in bench/ but missing from the scenario table")
    scenario_like = re.compile(r"^(fig\d+_|ablation_|churn_|perf_)")
    for name in sorted(documented - registered):
        if scenario_like.match(name):
            failures.append(f"FAIL README.md: scenario table row `{name}` has no BULLET_SCENARIO registration")

    failures += check_links(root)
    failures += check_options(root)

    for f in failures:
        print(f)
    if failures:
        return 1
    print(f"OK: {len(registered)} scenarios documented, links resolve in {len(markdown_files(root))} markdown files, "
          f"{len(option_table(root))} options documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
