"""Cold-start times of the CLI for one or more ``src`` trees, alternated.

    python3 tools/coldstart.py PARENT/src src [-n 15]

writes the numeral ``church-2`` (as ``linlog encode church-2`` prints
it with the first tree) to a temporary directory, then times ``python
-m linlog.cli`` on it: ``check``, ``normalize`` and ``nl`` at A = 2,
and ``tangent`` at A = 8 on a dense point and direction, 8 × 8 matrices
with no zero entry.
Each timing is the wall time of one fresh process whose PYTHONPATH is
one tree.  Processes run one at a time, and the trees take turns within
each round, so that a drift of the host's speed falls on all of them
alike.  Every process must exit 0, and every tree must print the same
stdout for a command.  For each command and tree the script prints the
best and the median of the N rounds, in milliseconds; the bare
interpreter (``python -c pass``), timed in the same rounds, is the floor.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time


def dense(shift: int) -> str:
    """The literal of an 8 × 8 matrix with entries 1..9, none zero."""
    rows = (",".join(str((8 * i + j + shift) % 9 + 1) for j in range(8)) for i in range(8))
    return "[" + ",".join(f"[{row}]" for row in rows) + "]"


COMMANDS = {
    "check": ["check", "{file}"],
    "normalize": ["normalize", "{file}"],
    "nl": ["nl", "{file}", "--assign", "A=2", "--point", "[[1,1],[0,1]]"],
    "tangent": [
        "tangent", "{file}", "--assign", "A=8", "--point", dense(0), "--direction", dense(4)
    ],
}


def run(argv: list[str], src: str | None) -> tuple[float, bytes]:
    """The wall time in ms of one process, and its stdout."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)} if src else None
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, env=env)
    elapsed = (time.perf_counter() - start) * 1000
    if done.returncode != 0:
        raise SystemExit(f"{argv} under {src} exited {done.returncode}: {done.stderr.decode()}")
    return elapsed, done.stdout


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+", help="a src directory that holds linlog")
    ap.add_argument("-n", type=int, default=15, help="rounds (default 15)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "church-2.llp")
        _, text = run([sys.executable, "-m", "linlog.cli", "encode", "church-2"], args.src[0])
        with open(file, "wb") as fh:
            fh.write(text)
        times: dict[tuple[str, str], list[float]] = {}
        for _ in range(args.n):
            times.setdefault(("pass", ""), []).append(run([sys.executable, "-c", "pass"], None)[0])
            for name, template in COMMANDS.items():
                command = [sys.executable, "-m", "linlog.cli"]
                command += [a.format(file=file) for a in template]
                outputs = set()
                for src in args.src:
                    elapsed, out = run(command, src)
                    times.setdefault((name, src), []).append(elapsed)
                    outputs.add(out)
                if len(outputs) > 1:
                    raise SystemExit(f"the trees print different stdout for {name}")
    print(f"{'command':<10} {'tree':<40} {'best ms':>8} {'median ms':>10}")
    for (name, src), ms in times.items():
        print(f"{name:<10} {src:<40} {min(ms):>8.1f} {statistics.median(ms):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
