#!/usr/bin/env python3
"""Grow every LDPC fixture by PEG and write it as the canonical alist file
the package loads (``src/dmmsim/codes/<name>.alist``).

Each fixture is a (dv, dc)-regular matrix grown by a seeded
progressive-edge-growth pass (Hu, Eleftheriou & Arnold, IEEE Trans. IT
2005): each new edge attaches to the check node farthest from the variable
in the current graph (unreached checks first), breaking ties by lowest
degree and then by a seeded priority order.  The construction is repeated
with the next seed until the matrix has full row rank, so every name maps
to one fixed, reproducible code.

The package ships only the files; its registry is the set of files in
``codes/``.  To add a fixture, add a ``PEG_FIXTURES`` line and run this
from the root of a checkout; ``tests/test_linear_code.py`` checks that the
shipped files equal what this writes.
"""

import pathlib

import numpy as np

from dmmsim.linear_code import gf2_rank

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "dmmsim" / "codes"


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


def save_alist(parity: np.ndarray, path) -> None:
    """Write a parity-check matrix in canonical padded alist form.

    Adjacency lines are padded with 0 to the maximum degree, entries in
    ascending order, single spaces, trailing newline: load followed by save
    reproduces a canonical file byte for byte.
    """
    m, n = parity.shape
    col_lists = [list(np.nonzero(parity[:, j])[0] + 1) for j in range(n)]
    row_lists = [list(np.nonzero(parity[i, :])[0] + 1) for i in range(m)]
    max_col = max(len(c) for c in col_lists)
    max_row = max(len(r) for r in row_lists)

    def pad(vals: list[int], width: int) -> str:
        return " ".join(str(v) for v in vals + [0] * (width - len(vals)))

    out = [f"{n} {m}", f"{max_col} {max_row}",
           " ".join(str(len(c)) for c in col_lists),
           " ".join(str(len(r)) for r in row_lists)]
    out += [pad(c, max_col) for c in col_lists]
    out += [pad(r, max_row) for r in row_lists]
    with open(str(path), "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for name in PEG_FIXTURES:
        save_alist(fixture_parity(name), OUT / f"{name}.alist")
        print(OUT / f"{name}.alist")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
