"""DESIGN.md §3's system inventory names every package and top-level
module under ``src/repro``, so adding or deleting one without the
document fails here."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def inventoried():
    """The names in the Package column of DESIGN.md §3's table."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 3. System inventory", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 3:
            names.update(re.findall(r"`(repro[\w.]*)`", cells[2]))
    return names


def test_every_package_and_top_level_module_is_named():
    parts = {f"repro.{path.stem}" for path in PACKAGE.glob("*.py")
             if path.stem != "__init__"}
    parts |= {f"repro.{path.name}" for path in PACKAGE.iterdir()
              if (path / "__init__.py").is_file()}
    assert {"repro.core", "repro.cli"} <= parts
    assert sorted(parts - inventoried()) == []
