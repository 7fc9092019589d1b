"""Build the committed ``src/thetakit/_core.c`` with the C compiler.

The extension goes to a cache directory keyed by the source, the compiler
and the interpreter; ``src/`` is never written.  ``child.py`` loads it
through a meta-path finder.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

CFLAGS = ("-shared", "-fPIC", "-O3", "-fwrapv", "-DNDEBUG")


def find_compiler():
    """The C compiler's argv prefix, or None when there is none."""
    cc = os.environ.get("CC", "cc").split()
    return cc if cc and shutil.which(cc[0]) else None


def compiler_version(cc):
    out = subprocess.run(cc + ["--version"], capture_output=True, text=True,
                         timeout=60)
    return out.stdout.splitlines()[0] if out.stdout else "unknown"


def build_core(root: Path, cache: Path, cc) -> Path:
    """Return the path of a compiled ``_core`` for this interpreter."""
    source = root / "src" / "thetakit" / "_core.c"
    include = sysconfig.get_paths()["include"]
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256()
    key.update(source.read_bytes())
    key.update(" ".join(cc + list(CFLAGS) + [include, suffix,
                                             sys.version]).encode())
    out_dir = cache / f"core-{key.hexdigest()[:16]}"
    target = out_dir / f"_core{suffix}"
    if target.exists():
        return target
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / f"_core.partial{suffix}"
    subprocess.run(cc + list(CFLAGS) + [f"-I{include}", str(source), "-o",
                                        str(partial)],
                   check=True, capture_output=True, timeout=600)
    partial.replace(target)
    return target
