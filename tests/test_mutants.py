"""The mutation run's list (``tools/mutants.py``) stays applicable: each
mutant's old text occurs exactly once in ``src/``, in its file.  The run
itself is not part of the suite."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supent"

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_changes_one_place_in_the_package():
    assert len(mutants.MUTANTS) >= 35
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    for m in mutants.MUTANTS:
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name
        assert sources[m.file].count(m.old) == 1, m.name
        assert m.new != m.old and m.reason, m.name
