"""Fixed reference work that does not touch streamshare.

The benchmark runs this script in a fresh interpreter right before each
iteration. The machine it runs on is shared, and its speed drifts by tens of
percent over minutes; dividing an iteration's wall time by this script's wall
time, measured seconds apart, cancels most of that drift. The mix follows the
program's own: CSV parsing into integer tuples, column scans of a wide
sparse matrix, exact Fraction accumulation, and bulk string formatting.
Nothing here may change, or normalized times stop being comparable.
"""

import csv
import io
import json
import random
from fractions import Fraction

rng = random.Random(12345)
n, m = 200, 1500
rows = [["0"] * m for _ in range(n)]
for j in range(m):
    for _ in range(6):
        rows[rng.randrange(n)][j] = str(rng.randint(1, 50))
text = "\n".join(",".join(r) for r in rows)
parsed = tuple(tuple(int(c) for c in row) for row in csv.reader(io.StringIO(text)))
cols = [tuple(r[j] for r in parsed) for j in range(m)]
acc = [Fraction(0)] * n
for col in cols:
    total = sum(col)
    for i, x in enumerate(col):
        if x:
            acc[i] += Fraction(x, total)
json.dumps({"values": [str(a) for a in acc],
            "rows": [f"{k:018b},{k % 977}" for k in range(1 << 15)]})
