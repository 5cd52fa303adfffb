#!/usr/bin/env python3
"""Grow every LDPC fixture by PEG and write it as the canonical alist file
the package loads (``src/dmmsim/codes/<name>.alist``).

Run from the root of a checkout after changing ``PEG_FIXTURES`` or
``peg_parity``; ``tests/test_linear_code.py`` checks that the shipped files
equal what this writes.
"""

import pathlib

from dmmsim import save_alist
from dmmsim.builtin_codes import PEG_FIXTURES, fixture_parity

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "dmmsim" / "codes"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for name in PEG_FIXTURES:
        save_alist(fixture_parity(name), OUT / f"{name}.alist")
        print(OUT / f"{name}.alist")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
