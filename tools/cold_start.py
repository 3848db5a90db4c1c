"""Print the wall time of fresh arclift processes, in ms, as a table.

Each row is one ``python3 -c`` program, run in K fresh processes with this
checkout's ``src`` on ``PYTHONPATH``; the cell is the median wall time of
the K, interpreter start-up included:

* ``pass``, the interpreter alone;
* ``import arclift``;
* the arclift imports of each benchmark workload, read from its module in
  ``perfbench/`` and from the ``perfbench/`` modules it imports;
* ``import arclift.cli``;
* each ``arclift ...`` command of the README's sh blocks, run through
  ``arclift.cli:main`` with its output discarded.

A README command must exit with the code its ``# exit N: ...`` comment
states, or 0 where it has none; every other row must exit 0.  The script
exits 1, after the table, if any row did not.  Whether the processes find
cached bytecode depends on ``PYTHONDONTWRITEBYTECODE`` in the caller's
environment, which the header states.  Standard library only; run from the
repository root:

    python3 tools/cold_start.py [--repeats K]
"""

import argparse
import ast
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = {"lift": "lift", "prepare": "prepare", "cli": "cli_mix"}
RUN_MAIN = "import sys; from arclift.cli import main; sys.exit(main(sys.argv[1:]))"


def workload_imports(module, seen=None):
    """The arclift import statements of ``perfbench/<module>.py`` and of
    the ``perfbench`` modules it imports, in the order they run."""
    seen = set() if seen is None else seen
    seen.add(module)
    path = PERFBENCH / f"{module}.py"
    source = path.read_text()
    lines = []
    for node in ast.parse(source, str(path)).body:
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "arclift":
                lines.append(ast.get_source_segment(source, node))
            elif (PERFBENCH / f"{name}.py").exists() and name not in seen:
                lines.extend(workload_imports(name, seen))
    return lines


def readme_commands():
    """(argv, expected exit code) for each ``arclift`` command in the
    README's sh blocks."""
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for line, below in zip(lines, lines[1:] + [""]):
            if line.startswith("arclift "):
                code = re.match(r"# exit (\d+):", below)
                yield shlex.split(line)[1:], int(code.group(1)) if code else 0


def rows():
    """(label, python -c program and arguments, expected exit code)."""
    yield "interpreter only (`pass`)", ["pass"], 0
    yield "`import arclift`", ["import arclift"], 0
    for workload, module in WORKLOADS.items():
        yield f"`{workload}` workload imports", ["; ".join(workload_imports(module))], 0
    yield "`import arclift.cli`", ["import arclift.cli"], 0
    for argv, code in readme_commands():
        yield f"`arclift {shlex.join(argv)}`", [RUN_MAIN, *argv], code


def median_run(program, repeats, env):
    """(median wall seconds, exit code of the last run) over ``repeats``
    fresh processes."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", *program], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls), proc.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10,
                        help="fresh processes per row, the median counts (K)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("need --repeats >= 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    bytecode = "not written" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "written"
    print(f"fresh-process wall time, ms, median of {args.repeats}; bytecode cache {bytecode}; "
          f"{platform.python_implementation()} {platform.python_version()}, {platform.machine()}")
    print()
    print("| process | ms | exit (expected) |")
    print("|---|---|---|")
    wrong = []
    for label, program, expected in rows():
        wall, code = median_run(program, args.repeats, env)
        print(f"| {label} | {wall * 1e3:.1f} | {code} ({expected}) |", flush=True)
        if code != expected:
            wrong.append(label)
    if wrong:
        sys.exit("exit code differs from the expected one: " + ", ".join(wrong))


if __name__ == "__main__":
    main()
