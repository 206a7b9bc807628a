#!/usr/bin/env python3
"""Captures what `twob` prints for a fixed invocation list, and compares
two captures: the harness a CLI output refactor is judged against.

  ci/cli_capture.py capture <twob-binary> <out-dir> [<runner-binary>]
  ci/cli_capture.py tokens  <capture-file>
  ci/cli_capture.py compare <parent-dir> <change-dir>

`capture` runs every invocation below and writes `<NN>.out` (stdout),
`<NN>.cmd` (the argument vector) and `<NN>.status` (the exit code). The
`STUDIES` lines run through the study runner binary, which defaults to
`twob` itself; only a build from before the two front doors were folded
into one (studies in a separate `twob-bench` binary) needs to name it.
`tokens` prints a capture's numeric tokens, one per line, in order: a run
of digits with an optional sign and fraction that touches no letter, so
header words such as `p50` or `4K` do not count. `compare` demands, per
invocation, the same exit code and
- text mode: the same token sequence;
- `--json`: every key path the parent printed present with the identical
  value. Paths that are not are listed, for CHANGES.md to account for;
  the exit code is 1 only if a text invocation differs.
"""

import json
import pathlib
import re
import subprocess
import sys

INVOCATIONS = [
    # CI's determinism job.
    "faults sweep --cuts 64 --seed 7",
    "repl --plans 54 --seed 5 --json",
    "cluster --plans 12 --seed 5 --json",
    "tier --n 4 --qd 4 --json",
    "ycsb --log twob --ops 2000 --qd 4",
    # README.md and EXPERIMENTS.md, placeholders filled in.
    "help",
    "faults sweep --cuts 216 --seed 7",
    "tenants --n 16 --mix pg,rocks,redis --seed 61",
    "cluster --nodes 12 --shards 6 --placement hash --seed 7",
    "tier --n 4 --qd 4 --mix pg,rocks,redis",
    "repl --mode semisync:2 --rtt-us 50 --json",
    "repl --plans 54 --seed 5",
    "serve --tenants 16 --arrival poisson --rate 20000 --slo-p99-us 400 --json",
    "serve --tenants 16 --arrival diurnal --rate 40000 --slo-p99-us 4",
    "cluster --nodes 12 --shards 6 --placement range --seed 7 --json",
    # .claude/skills/verify/SKILL.md.
    "spec",
    "latency --device ull --op read --size 4096",
    "wal --scheme ba --commits 5 --payload 64",
    "ycsb --log twob --ops 200 --payload 256",
    "crash-demo",
    "repl --plans 8 --json",
    # all_subcommands_run.
    "devices",
    "latency --device twob-dma --op read --size 2048",
    # The byte path's stores: one WC line, and a page of them.
    "latency --device twob-mmio --op write --size 4096 --trace 8",
    "latency --device twob-mmio --op write --size 8",
    "latency --device ull --op write --trace 8",
    "gc --churn 400 --seed 3 --trace 12",
    "wal --scheme pm --commits 50 --payload 64",
    "ycsb --log async --ops 200 --payload 64",
    "ycsb --log twob --ops 200 --payload 64 --qd 8",
    "tenants --n 2 --mix redis,rocks --seed 5 --ops 40",
    "serve --tenants 4 --arrival burst --rate 20000 --slo-p99-us 400",
    "tier --n 2 --qd 2 --mix rocks,redis --ops 20 --seed 7",
    "faults sweep --cuts 9 --seed 3",
    "repl --replicas 3 --mode semisync:2 --commits 12 --plans 2 --seed 9",
    "cluster --nodes 9 --shards 4 --placement range --mode sync --commits 6 --plans 1 --seed 11",
    # json_variants_run.
    "gc --churn 200 --seed 3 --json",
    "tenants --n 2 --ops 40 --json",
    "serve --tenants 2 --rate 30000 --json",
    "tier --n 2 --ops 20 --json",
    "repl --commits 10 --plans 1 --seed 4 --json",
    "cluster --nodes 9 --shards 4 --commits 6 --plans 1 --seed 11 --json",
    # replay_runs_a_trace_file.
    "replay --trace trace.txt --device dc",
    # The shard-count limit is the node host's: block slots take no
    # pin-table share, BA slots one mapping entry each.
    "cluster --ship block --shards 17 --commits 2 --plans 0",
    "cluster --shards 9 --commits 2 --plans 0",
]

STUDIES = [
    # The study runner: each study that finishes in well under a second.
    "list",
    "table1_spec",
    "fig7_latency",
    "fig8_bandwidth",
    "commit_cost",
    "gc_interference",
    "fig9_apps --quick",
    "fig10_hetero --quick",
    "cluster_sweep --gate",
    # Usage errors: nothing runs, exit 2.
    "no_such_study",
    "fig7_latency --write",
    "list --gate",
    # Appended after the list above so its capture indices stay put: the
    # studies that run `sharded_agreement` across all four drives.
    "serve_sweep --gate",
    "tier_sweep --gate",
    "tenant_sweep",
]

# Appended after STUDIES so every earlier capture index stays put: the
# largest and the smallest closed-loop session pools, run through `twob`.
SESSIONS = [
    "tenants --n 64 --ops 40 --json",
    "tenants --n 1 --mix redis --ops 300 --seed 9 --json",
]

TOKEN = re.compile(r"(?<![A-Za-z0-9_.])-?\d+(?:\.\d+)?(?![A-Za-z0-9_])")


def tokens(text):
    return TOKEN.findall(text)


def capture(binary, out_dir, runner=None):
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    binary = pathlib.Path(binary).resolve()
    runner = pathlib.Path(runner).resolve() if runner else binary
    # `replay` prints the path it was given: keep it relative, run in `out`.
    (out / "trace.txt").write_text("W 0 2\nF\nR 0 2\nT 0 1\n")
    lines = (
        [(binary, line) for line in INVOCATIONS]
        + [(runner, line) for line in STUDIES]
        + [(binary, line) for line in SESSIONS]
    )
    for n, (program, line) in enumerate(lines):
        run = subprocess.run([program, *line.split()], capture_output=True, text=True, cwd=out)
        (out / f"{n:02}.cmd").write_text(line + "\n")
        (out / f"{n:02}.out").write_text(run.stdout)
        (out / f"{n:02}.status").write_text(f"{run.returncode}\n")
        print(f"{n:02} exit {run.returncode} {len(run.stdout):>7} B  twob {line}")


def flatten(value, path, into):
    if isinstance(value, dict):
        for key, inner in value.items():
            flatten(inner, f"{path}.{key}" if path else key, into)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, inner in enumerate(value):
            flatten(inner, f"{path}[{i}]", into)
    else:
        into[path] = value


def json_paths(text):
    line = next(l for l in text.splitlines() if l.startswith("json: "))
    into = {}
    flatten(json.loads(line[len("json: "):]), "", into)
    return into


def compare(parent_dir, change_dir):
    parent, change = pathlib.Path(parent_dir), pathlib.Path(change_dir)
    failed = False
    for cmd_file in sorted(parent.glob("*.cmd")):
        stem, line = cmd_file.stem, cmd_file.read_text().strip()
        before = (parent / f"{stem}.out").read_text()
        after = (change / f"{stem}.out").read_text()
        codes = [(d / f"{stem}.status").read_text().strip() for d in (parent, change)]
        problems = []
        if codes[0] != codes[1]:
            problems.append(f"exit code {codes[0]} -> {codes[1]}")
            failed = True
        if "--json" in line.split():
            old, new = json_paths(before), json_paths(after)
            moved = [
                f"{path}: {old[path]!r} -> {new.get(path, 'absent')!r}"
                for path in old
                if path not in new or new[path] != old[path]
            ]
            verdict = "json keys kept" if not moved else f"{len(moved)} json key(s) to account for"
            problems += moved
        else:
            old, new = tokens(before), tokens(after)
            verdict = f"{len(old)} tokens equal"
            if old != new:
                at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
                problems.append(f"token {at}: {old[at:at + 3]} -> {new[at:at + 3]} ({len(old)} -> {len(new)} tokens)")
                verdict = "TOKENS DIFFER"
                failed = True
        print(f"{stem} {verdict:<32} twob {line}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0


def main(argv):
    if len(argv) in (4, 5) and argv[1] == "capture":
        capture(*argv[2:])
    elif len(argv) == 3 and argv[1] == "tokens":
        print("\n".join(tokens(pathlib.Path(argv[2]).read_text())))
    elif len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
