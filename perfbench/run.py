#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes through dune with its
shared cache disabled, so nothing is written outside the checkout.  The
benchmark's own output, whose last line is the JSON result, passes through
unchanged; a failed build exits non-zero without printing a result.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

EXE = pathlib.Path("_build/default/perfbench/main.exe")


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for path in sorted(pathlib.Path(top).rglob("*")):
            if path.is_file() and (path.suffix in (".ml", ".mli", ".py") or path.name == "dune"):
                h.update(str(path).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not pathlib.Path(".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "perfbench/main.exe"],
        env=env,
    )
    if build.returncode != 0 or not EXE.exists():
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [str(EXE)] + sys.argv[1:] + ["--commit", commit(), "--source-digest", source_digest()]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
