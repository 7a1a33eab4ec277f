#!/usr/bin/env python3
"""Walkthrough: the eight phases of Columnsort, phase by phase (Figure 1).

Prints the matrix after every phase of the paper's §5.1 algorithm on a
small example — the reproduction of Figure 1 — followed by the
collision-free broadcast schedule that realizes the transpose on the
network (the §5.2 closed form).

Run:  python examples/columnsort_walkthrough.py
"""

from repro.columnsort import columnsort, transformations_demo
from repro.mcb.vector import lower_paper_transpose

import numpy as np


def main() -> None:
    m, k = 6, 3
    rng = np.random.default_rng(1985)
    values = rng.permutation(m * k) + 1

    print("=" * 64)
    print("Figure 1: the four matrix transformations on the identity")
    print("=" * 64)
    print(transformations_demo(m, k))

    print()
    print("=" * 64)
    print(f"Columnsort trace on a random {m}x{k} matrix")
    print("=" * 64)
    flat, trace = columnsort(values, m, k, trace=True)
    print(trace.render())
    assert np.all(flat[:-1] >= flat[1:])
    print("\nfinal order (descending, column-major):", flat.astype(int).tolist())

    print()
    print("=" * 64)
    print("§5.2 closed-form broadcast schedule for phase 2 (transpose)")
    print("=" * 64)
    print("cycle j: processor P_i sends row ((i+j) mod m)+1 on channel C_i")
    print("         and reads channel ((i-(j mod k)-2) mod k)+1\n")
    plan = lower_paper_transpose(m, k)
    send = {(j, i): row for j, i, _, row in plan.writes}
    read = {(j, i): chan for j, i, chan, _ in plan.reads}
    for j in range(m):
        parts = [
            f"P{i + 1}: send row {send[j, i] + 1:>2}, read C{read[j, i]}"
            for i in range(k)
        ]
        print(f"cycle {j}:  " + "   ".join(parts))
    print(f"\n{m} cycles, one element per processor per cycle, no collisions")


if __name__ == "__main__":
    main()
