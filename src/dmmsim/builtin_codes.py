"""Registry of deterministic fixture codes.

All LDPC fixtures are (dv, dc)-regular matrices grown by a seeded
progressive-edge-growth pass: each new edge attaches to the check node
farthest from the variable in the current graph (unreached checks first),
breaking ties by lowest degree and then by a seeded priority order.  The
construction is repeated with the next seed until the matrix has full row
rank, so every name maps to one fixed, reproducible code.

The matrices ship with the package as canonical alist files in ``codes/``,
so a process loads a fixture instead of growing it; :func:`fixture_parity`
grows it again and is the reference those files are tested against.  The
(7,4) Hamming code ships there too, so every builtin code is a file.

Lengths are desk scale (tens to a few thousand bits).  The rate-1/2 and
rate-1/4 families mirror the code-rate structure of the simulated scheme;
the rate-1/4 members are the bases for repetition-extended rate-1/8 and
rate-1/16 codes.
"""

from __future__ import annotations

import functools
from importlib import resources

import numpy as np

from .linear_code import BinaryCode, _parse_alist, gf2_rank, load_alist


def peg_parity(n: int, dv: int, dc: int, seed: int = 0) -> np.ndarray:
    """Grow a (dv, dc)-regular parity-check matrix by progressive edge growth."""
    if n * dv % dc != 0:
        raise ValueError(f"(n*dv) must be divisible by dc: {n}*{dv} % {dc} != 0")
    m = n * dv // dc
    priority = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).permutation(m)

    var_adj = np.full((n, dv), -1, dtype=np.int64)
    check_adj = np.full((m, dc), -1, dtype=np.int64)
    var_deg = np.zeros(n, dtype=np.int64)
    check_deg = np.zeros(m, dtype=np.int64)

    for v in range(n):
        for _ in range(dv):
            # BFS over the current bipartite graph, levels recorded per check
            reached_c = np.zeros(m, dtype=bool)
            level_c = np.full(m, -1, dtype=np.int64)
            reached_v = np.zeros(n, dtype=bool)
            reached_v[v] = True
            frontier = np.array([v], dtype=np.int64)
            depth = 0
            while frontier.size:
                depth += 1
                nbr_c = var_adj[frontier].ravel()
                nbr_c = nbr_c[nbr_c >= 0]
                new_c = np.zeros(m, dtype=bool)
                new_c[nbr_c] = True
                new_c &= ~reached_c
                if not new_c.any():
                    break
                reached_c |= new_c
                level_c[new_c] = depth
                nbr_v = check_adj[np.nonzero(new_c)[0]].ravel()
                nbr_v = nbr_v[nbr_v >= 0]
                new_v = np.zeros(n, dtype=bool)
                new_v[nbr_v] = True
                new_v &= ~reached_v
                reached_v |= new_v
                frontier = np.nonzero(new_v)[0]

            open_slot = check_deg < dc
            cand = ~reached_c & open_slot
            if not cand.any():
                # everything reachable: take the farthest level with a free slot
                for lev in range(level_c.max(), 0, -1):
                    cand = (level_c == lev) & open_slot
                    if cand.any():
                        break
                else:
                    cand = open_slot
            idx = np.nonzero(cand)[0]
            pick = idx[np.lexsort((priority[idx], check_deg[idx]))[0]]

            var_adj[v, var_deg[v]] = pick
            check_adj[pick, check_deg[pick]] = v
            var_deg[v] += 1
            check_deg[pick] += 1

    h = np.zeros((m, n), dtype=np.uint8)
    h[var_adj.ravel(), np.repeat(np.arange(n), dv)] = 1
    return h


#: PEG parameters (n, dv, dc, first seed) of each LDPC fixture.
PEG_FIXTURES = {
    "ldpc_r12_n24": (24, 3, 6, 11),
    "ldpc_r14_n64": (64, 3, 4, 21),
    "ldpc_r12_n256": (256, 3, 6, 31),
    "ldpc_r14_n512": (512, 3, 4, 41),
    "ldpc_r14_n1024": (1024, 3, 4, 51),
    "ldpc_r12_n2048": (2048, 3, 6, 61),
}


def fixture_parity(name: str) -> np.ndarray:
    """Grow the parity-check matrix of an LDPC fixture: the first full-rank
    PEG matrix from its seed on."""
    n, dv, dc, seed = PEG_FIXTURES[name]
    for attempt in range(16):
        h = peg_parity(n, dv, dc, seed=seed + attempt)
        if gf2_rank(h) == h.shape[0]:
            return h
    raise RuntimeError(f"no full-rank PEG matrix found for {name} near seed {seed}")


BUILTIN_CODE_NAMES = tuple(sorted(("hamming_7_4", *PEG_FIXTURES)))


@functools.lru_cache(maxsize=None)
def builtin_code(name: str) -> BinaryCode:
    """Load (once per process) the named fixture code."""
    if name not in BUILTIN_CODE_NAMES:
        raise KeyError(
            f"unknown builtin code {name!r}; available: {', '.join(BUILTIN_CODE_NAMES)}"
        )
    with resources.as_file(resources.files(__package__) / "codes" / f"{name}.alist") as path:
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
    return _parse_alist(data.decode("ascii"), path)
