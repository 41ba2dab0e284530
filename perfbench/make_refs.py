"""Record the reference outputs in refs/ from the weylkit source beside this directory.

    python3 perfbench/make_refs.py [grid] [exact] [cli]

References are recorded once, at the commit that defines the benchmark,
and then kept: a later change must reproduce them, which is what the
output checks of run.py test.  Rerun this only when a change of the
benchmark itself alters its inputs.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from common import save_refs  # noqa: E402


def main(names):
    import importlib

    for name in names or ("grid", "exact", "cli"):
        save_refs(name, importlib.import_module(f"work_{name}").make_refs())
        print(f"recorded refs/{name}.json")


if __name__ == "__main__":
    main(sys.argv[1:])
