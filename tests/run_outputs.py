"""Comparison of two `vkg simulate` output directories, shared by the
determinism checks."""

import json
from pathlib import Path


def same_outputs(a: Path, b: Path) -> dict[str, bool]:
    """Per file name in either directory: whether both runs wrote the same
    file.  Artifacts are compared byte for byte and manifest.json without
    its `timings` block, the only wall-clock-dependent field; a file that
    one run did not write differs."""
    same = {}
    for name in sorted({p.name for d in (a, b) for p in d.iterdir()}):
        if not ((a / name).is_file() and (b / name).is_file()):
            same[name] = False
        elif name == "manifest.json":
            docs = [json.loads((d / name).read_text()) for d in (a, b)]
            for doc in docs:
                doc.pop("timings")
            same[name] = docs[0] == docs[1]
        else:
            same[name] = (a / name).read_bytes() == (b / name).read_bytes()
    return same
