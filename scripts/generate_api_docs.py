#!/usr/bin/env python
"""Generate API.md — a docstring-driven reference of the public API.

Walks every public symbol exported from the `repro` subpackages and
writes one markdown section per module with the first paragraph of each
symbol's docstring.  Keeps the reference honest: it is extracted from
the live package, so it cannot drift from the code.

Usage:  python scripts/generate_api_docs.py [output_path]
"""

from __future__ import annotations

import importlib
import inspect
import sys

PACKAGES = [
    "repro.nn",
    "repro.datasets",
    "repro.models",
    "repro.defenses",
    "repro.attacks",
    "repro.evaluation",
    "repro.experiments",
    "repro.scenarios",
    "repro.runtime",
    "repro.obs",
    "repro.serving",
    "repro.utils",
]


def first_paragraph(doc: str) -> str:
    """First paragraph of a docstring, whitespace-normalized."""
    if not doc:
        return "(undocumented)"
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def describe_symbol(name: str, obj) -> str:
    kind = ("class" if inspect.isclass(obj)
            else "function" if callable(obj)
            else "constant")
    if kind == "constant":
        return f"- **`{name}`** *(constant)*"
    try:
        sig = str(inspect.signature(obj))
    except (ValueError, TypeError):
        sig = "(...)"
    doc = first_paragraph(inspect.getdoc(obj) or "")
    return f"- **`{name}{sig}`** *({kind})* — {doc}"


def public_symbols(pkg):
    """``(name, obj)`` for each symbol of ``pkg`` that gets an API.md line."""
    exported = getattr(pkg, "__all__", None)
    if exported is None:
        exported = [n for n in dir(pkg) if not n.startswith("_")]
    for name in exported:
        obj = getattr(pkg, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        yield name, obj


def main(out_path: str = "API.md") -> None:
    lines = [
        "# API reference",
        "",
        "Generated from docstrings by `scripts/generate_api_docs.py`;",
        "regenerate after changing public signatures.",
        "",
    ]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        lines.append(f"## `{pkg_name}`")
        lines.append("")
        pkg_doc = first_paragraph(inspect.getdoc(pkg) or "")
        lines.append(pkg_doc)
        lines.append("")
        for name, obj in public_symbols(pkg):
            lines.append(describe_symbol(name, obj))
        lines.append("")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines))
    count = sum(1 for line in lines if line.startswith("- **"))
    print(f"wrote {out_path} ({count} symbols)")


if __name__ == "__main__":
    main(*sys.argv[1:])
