"""Registry of the builtin codes.

Every builtin code ships with the package as a canonical alist file in
``codes/``, and the files are the registry: ``BUILTIN_CODE_NAMES`` is the
sorted stems of ``codes/*.alist``, and a process loads a code from its
file on first use.  The (7,4) Hamming code is the textbook H.  The LDPC
fixtures are (dv, dc)-regular matrices grown by a seeded
progressive-edge-growth pass; ``scripts/write_builtin_alists.py`` holds
that construction and the parameters of each fixture, and writes the
files.

Lengths are desk scale (tens to a few thousand bits).  The rate-1/2 and
rate-1/4 families mirror the code-rate structure of the simulated scheme;
the rate-1/4 members are the bases for repetition-extended rate-1/8 and
rate-1/16 codes.
"""

from __future__ import annotations

import functools
from importlib import resources

from .linear_code import BinaryCode, _parse_alist, load_alist

_CODES = resources.files(__package__) / "codes"

BUILTIN_CODE_NAMES = tuple(sorted(
    entry.name.removesuffix(".alist") for entry in _CODES.iterdir()
    if entry.name.endswith(".alist")
))


@functools.lru_cache(maxsize=None)
def builtin_code(name: str) -> BinaryCode:
    """Load (once per process) the named fixture code."""
    if name not in BUILTIN_CODE_NAMES:
        raise KeyError(
            f"unknown builtin code {name!r}; available: {', '.join(BUILTIN_CODE_NAMES)}"
        )
    with resources.as_file(_CODES / f"{name}.alist") as path:
        return load_alist(path, name=name)


def resolve_code(ref: str) -> BinaryCode:
    """Map a config reference to a code: builtin name or path to .alist file.

    A file is parsed once per process for each content it has had, so a
    sweep that checks its codes while loading the config and then runs them
    reads each file twice but row-reduces it once, and an edited file is
    loaded again."""
    if ref in BUILTIN_CODE_NAMES:
        return builtin_code(ref)
    if ref.endswith(".alist"):
        with open(ref, "rb") as fh:
            return _alist_code(ref, fh.read())
    raise ValueError(
        f"code reference {ref!r} is neither a builtin name nor an .alist path; "
        f"builtins: {', '.join(BUILTIN_CODE_NAMES)}"
    )


@functools.lru_cache(maxsize=8)
def _alist_code(path: str, data: bytes) -> BinaryCode:
    return _parse_alist(data, path)
