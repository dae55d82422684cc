"""Write the frozen tolerance reference ``tests/data/demo_reference.npz``.

    PYTHONPATH=src:tests python tests/make_demo_reference.py

The reference was generated once, from the dense-kernel code (git commit
30ae9e8), and is checked in. ``test_demo_reference.py`` compares every
later version of the code against it at 1e-10 of each array's peak. Do not
regenerate it to make a difference go away: a change that moves a density
by more than the bound is a change of results and needs its own review.
"""

from pathlib import Path

import numpy as np
from helpers import demo_densities

from biphoton.demos import demo_documents

OUT = Path(__file__).parent / "data" / "demo_reference.npz"


def main() -> None:
    entries = {}
    for name in demo_documents():
        metrics, arrays = demo_densities(name)
        for key, value in metrics.items():
            entries[f"{name}::metric::{key}"] = np.float64(value)
        for key, values in arrays.items():
            entries[f"{name}::{key}"] = values
    OUT.parent.mkdir(exist_ok=True)
    np.savez_compressed(OUT, **entries)
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
