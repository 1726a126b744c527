"""Reference program: a fixed amount of pure-Python work, independent of hhx.

    python reference.py

The benchmark runs it as a fresh process before each timed `hhx` job and
reports job time as a multiple of this program's time, so that a slow spell
of a shared machine, which stretches both alike, cancels out. It exercises
what hhx spends its time on: dicts keyed by tuples of ints, sparse row
elimination over F_5 and fraction-free integer elimination. Its inputs are
fixed, never drawn from the benchmark seed, so its work is the same on every
run. Prints a checksum of its results, which the benchmark checks.
"""

import random

P = 5


def sparse_rank_mod_p(rng):
    """Rank over F_5 of a sparse random 200 x 160 matrix kept as dict rows."""
    pivots = {}
    for _ in range(200):
        row = {rng.randrange(160): rng.randrange(1, P) for _ in range(6)}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], P - 2, P)
                pivots[col] = {k: v * inv % P for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivots[col].items():
                value = (row.get(k, 0) - factor * v) % P
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def tuple_table(rng):
    """Build and probe a dict keyed by face tuples, as coface assembly does."""
    table = {}
    for _ in range(20000):
        key = tuple(sorted(rng.randrange(12) for _ in range(4)))
        table[key] = table.get(key, 0) + 1
    hits = 0
    for key in list(table):
        for i in range(len(key)):
            if key[:i] + key[i + 1:] + (0,) in table:
                hits += 1
    return len(table) * 100000 + hits


def bareiss_rank(rng):
    """Rank of a dense 40 x 40 integer matrix by fraction-free elimination."""
    n = 40
    m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
    prev, rank = 1, 0
    for c in range(n):
        pivot = next((r for r in range(rank, n) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, n):
            m[r] = [(m[rank][c] * m[r][j] - m[r][c] * m[rank][j]) // prev
                    for j in range(n)]
        prev = m[rank][c]
        rank += 1
    return rank * 1000 + abs(prev) % 997


def main():
    rng = random.Random(20140709)
    results = [sparse_rank_mod_p(rng), tuple_table(rng), bareiss_rank(rng)]
    print(sum(results) % 1000003)


if __name__ == "__main__":
    main()
