#!/usr/bin/env python3
"""Fail on a manifest dependency that no source of its package names.

For every workspace member, each `[dependencies]` / `[dev-dependencies]`
entry must appear, as its snake_case crate name and as a whole word, in
at least one `.rs` file of the package: its directory, plus every target
`path =` its manifest lists (the `[[test]]` / `[[example]]` files under
the repo root). Prints one line per unused entry and exits 1 if there is
any.

Usage: python3 scripts/unused_deps.py   (from anywhere in the repo;
Python >= 3.11, for tomllib)
"""

import glob
import os
import re
import sys
import tomllib

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def sources(pkg_dir, manifest):
    """Every `.rs` file of a package: its tree plus its listed targets."""
    files = [
        os.path.join(d, f)
        for d, _, fs in os.walk(pkg_dir)
        for f in fs
        if f.endswith(".rs")
    ]
    for kind in ("lib", "bin", "test", "example", "bench"):
        targets = manifest.get(kind, [])
        for t in [targets] if isinstance(targets, dict) else targets:
            if "path" in t:
                files.append(os.path.join(pkg_dir, t["path"]))
    return files


def main():
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        members = tomllib.load(f)["workspace"]["members"]
    unused = []
    for pattern in members:
        for pkg_dir in sorted(glob.glob(os.path.join(ROOT, pattern))):
            path = os.path.join(pkg_dir, "Cargo.toml")
            if not os.path.isfile(path):
                continue
            with open(path, "rb") as f:
                manifest = tomllib.load(f)
            text = "".join(open(p).read() for p in set(sources(pkg_dir, manifest)))
            words = set(re.findall(r"\w+", text))
            for table in ("dependencies", "dev-dependencies"):
                for dep in manifest.get(table, {}):
                    if dep.replace("-", "_") not in words:
                        rel = os.path.relpath(path, ROOT)
                        unused.append(f"{rel}: [{table}] {dep} is named by no source")
    for line in unused:
        print(line)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
