#!/usr/bin/env python3
"""Captures what `twob` prints for a fixed invocation list, and compares
two captures: the harness a CLI output refactor is judged against.

  ci/cli_capture.py capture <twob-binary> <out-dir>
  ci/cli_capture.py tokens  <capture-file>
  ci/cli_capture.py compare <parent-dir> <change-dir>

`capture` runs every invocation below and writes `<NN>.out` (stdout),
`<NN>.err` (stderr), `<NN>.cmd` (the argument vector) and `<NN>.status`
(the exit code). `tokens` prints a capture's numeric tokens, one per
line, in order: a run of digits with an optional sign and fraction that
touches no letter, so header words such as `p50` or `4K` do not count.
`compare` demands, per invocation, the same exit code and
- every `json:` line: the same key paths with identical values, neither
  side holding a path the other lacks;
- the rest of stdout: the same token sequence;
- stderr: the same text, line for line. The usage text an error is
  followed by is the `help` capture's stdout; it is compared there, by
  tokens, and stands as one placeholder line in stderr.
Every difference is listed; any one makes `compare` exit 1.
"""

import json
import pathlib
import re
import subprocess
import sys

INVOCATIONS = [
    "help",
    "list",
    # Each study that finishes in well under a second.
    "table1_spec",
    "fig7_latency",
    "fig8_bandwidth",
    "commit_cost",
    "gc_interference",
    "ablations",
    "fig9_apps --quick",
    "fig10_hetero --quick",
    "tenant_sweep",
    # Every gate: the serve and tier gates run `sharded_agreement` across
    # all four drives, and `fault_sweep` is every guarantee CI checks
    # under faults.
    "repl_sweep --gate",
    "cluster_sweep --gate",
    "serve_sweep --gate",
    "tier_sweep --gate",
    "fault_sweep --gate",
    # Usage errors: nothing runs, exit 2.
    "no_such_study",
    "fig7_latency --write",
    "list --gate",
    "fig7_latency --gate",
    "replay stray",
    # The one path outside data takes in: a trace file.
    "replay --trace trace.txt --device dc",
    "replay --device dc",
    "replay --trace missing.txt",
    "replay --trace trace.txt --device floppy",
]

TOKEN = re.compile(r"(?<![A-Za-z0-9_.])-?\d+(?:\.\d+)?(?![A-Za-z0-9_])")

USAGE = "<usage text: the `help` capture>\n"


def tokens(text):
    return TOKEN.findall(text)


def capture(binary, out_dir):
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    binary = pathlib.Path(binary).resolve()
    # `replay` prints the path it was given: keep it relative, run in `out`.
    (out / "trace.txt").write_text("W 0 2\nF\nR 0 2\nT 0 1\n")
    for n, line in enumerate(INVOCATIONS):
        run = subprocess.run([binary, *line.split()], capture_output=True, text=True, cwd=out)
        (out / f"{n:02}.cmd").write_text(line + "\n")
        (out / f"{n:02}.out").write_text(run.stdout)
        (out / f"{n:02}.err").write_text(run.stderr)
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


def split_json(text):
    """The key paths of every `json:` line (prefixed by its ordinal), and
    the text around them."""
    paths, rest = {}, []
    for line in text.splitlines(keepends=True):
        if line.startswith("json: "):
            flatten(json.loads(line[len("json: "):]), f"json#{len(paths)}", paths)
        else:
            rest.append(line)
    return paths, "".join(rest)


def compare(parent_dir, change_dir):
    parent, change = pathlib.Path(parent_dir), pathlib.Path(change_dir)
    help_stem = {d: next(c.stem for c in d.glob("*.cmd") if c.read_text().strip() == "help") for d in (parent, change)}
    usage = {d: (d / f"{help_stem[d]}.out").read_text() for d in (parent, change)}
    failed = False
    for cmd_file in sorted(parent.glob("*.cmd")):
        stem, line = cmd_file.stem, cmd_file.read_text().strip()
        read = lambda d, ext: (d / f"{stem}.{ext}").read_text()
        problems = []
        codes = [read(d, "status").strip() for d in (parent, change)]
        if codes[0] != codes[1]:
            problems.append(f"exit code {codes[0]} -> {codes[1]}")
        (old_json, old_text), (new_json, new_text) = (split_json(read(d, "out")) for d in (parent, change))
        problems += [
            f"{path}: {old_json.get(path, 'absent')!r} -> {new_json.get(path, 'absent')!r}"
            for path in {**old_json, **new_json}
            if old_json.get(path, "absent") != new_json.get(path, "absent")
        ]
        old, new = tokens(old_text), tokens(new_text)
        if old != new:
            at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
            problems.append(f"token {at}: {old[at:at + 3]} -> {new[at:at + 3]} ({len(old)} -> {len(new)} tokens)")
        old_err, new_err = (read(d, "err").replace(usage[d], USAGE) for d in (parent, change))
        if old_err != new_err:
            at = next((i for i, (a, b) in enumerate(zip(old_err, new_err)) if a != b), min(len(old_err), len(new_err)))
            problems.append(f"stderr at char {at}: {old_err[at:at + 60]!r} -> {new_err[at:at + 60]!r}")
        failed |= bool(problems)
        verdict = "DIFFERS" if problems else f"same ({len(old_json)} json paths, {len(old)} tokens)"
        print(f"{stem} {verdict:<36} twob {line}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0


def main(argv):
    if len(argv) == 4 and argv[1] == "capture":
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
