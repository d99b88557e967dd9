#!/usr/bin/env python
"""Documentation gate for the CI docs job.

Two checks, both fast and dependency-free:

* **Docstring coverage** — every public callable (function, class, or
  public method of a public class) in ``src/repro/engine``,
  ``src/repro/serve``, ``src/repro/obs`` and the plan, execution and
  fusion modules of ``src/repro/core`` must carry a docstring.  These are
  the layers the serving and performance documentation points at; an
  undocumented entry point there is a docs regression, not a style nit.
* **Internal links** — every relative link target in ``ARCHITECTURE.md``,
  ``README.md`` and ``PERFORMANCE.md`` must exist in the repository, so
  the documentation map never silently rots as files move.

Run from the repository root::

    python tools/check_docs.py

Exits non-zero listing every violation.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Packages (or single modules) whose public callables must all be
#: documented.  ``repro.core.fused`` rides along with the serving layers:
#: the scheduler's batching contract is defined by its docstrings.
#: ``repro.core.algorithm`` holds the kernel modes and the one
#: columnar-selection predicate every tier decision calls;
#: ``repro.core.plan`` and ``repro.core.grouped`` hold the step types and
#: the grouped executor that share its step loop.
DOCUMENTED_PACKAGES = (
    "repro.engine",
    "repro.serve",
    "repro.serve.http",
    "repro.core.algorithm",
    "repro.core.plan",
    "repro.core.grouped",
    "repro.core.fused",
    "repro.obs",
)

#: Markdown documents whose relative links must resolve.
LINKED_DOCUMENTS = ("ARCHITECTURE.md", "README.md", "PERFORMANCE.md")

_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")


def _iter_modules(package_name: str):
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.iter_modules(
        getattr(package, "__path__", ()), prefix=package_name + "."
    ):
        yield importlib.import_module(info.name)


def _public_callables(module):
    """(qualified name, object) for the module's public callable surface."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their home
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(
                        member, (property, classmethod, staticmethod)
                    ):
                        yield f"{module.__name__}.{name}.{attr}", member


def missing_docstrings() -> list[str]:
    missing = []
    for package in DOCUMENTED_PACKAGES:
        for module in _iter_modules(package):
            if not (module.__doc__ or "").strip():
                missing.append(f"{module.__name__} (module)")
            for qualified, obj in _public_callables(module):
                target = obj
                if isinstance(obj, (classmethod, staticmethod)):
                    target = obj.__func__
                elif isinstance(obj, property):
                    target = obj.fget
                if not (getattr(target, "__doc__", "") or "").strip():
                    missing.append(qualified)
    return missing


def broken_links() -> list[str]:
    broken = []
    for name in LINKED_DOCUMENTS:
        document = REPO_ROOT / name
        if not document.exists():
            broken.append(f"{name}: document missing")
            continue
        for target in _LINK.findall(document.read_text(encoding="utf-8")):
            if "://" in target or target.startswith("mailto:"):
                continue
            if not (REPO_ROOT / target).exists():
                broken.append(f"{name}: broken link -> {target}")
    return broken


def main() -> int:
    failures = 0
    undocumented = missing_docstrings()
    if undocumented:
        failures += len(undocumented)
        print("public callables without docstrings:")
        for entry in undocumented:
            print(f"  {entry}")
    links = broken_links()
    if links:
        failures += len(links)
        print("unresolved documentation links:")
        for entry in links:
            print(f"  {entry}")
    if failures:
        print(f"\n{failures} documentation violation(s)")
        return 1
    print("documentation checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
