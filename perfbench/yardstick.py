"""A fixed task that measures how fast the host is running right now.

    python3 perfbench/yardstick.py

run.py starts it in a fresh process before each timed execution and times
the whole process, as it times the `fklab` commands. Its work does not
change between commits: it imports numpy but not fklab, so no change to the
package moves it. Its mix resembles the workloads': interpreter start and
the numpy import, fresh large arrays, complex arithmetic, random gathers,
bit-string formatting and one `json.dumps` per record.

The time metrics of a `--trace 0` run are scaled by YARDSTICK_S over the
median time of this task in the same run (see README.md, Host speed).
"""

import json

import numpy as np

rng = np.random.default_rng(12345)
total = 0j
for _ in range(4):
    phases = rng.random(1 << 21)
    amplitudes = np.exp(1j * phases)
    total += amplitudes[rng.integers(0, phases.size, 1 << 20)].sum()
rows = [format(i, "016b") for i in range(120_000)]
text = "\n".join(rows)
records = "".join(json.dumps({"i": i, "u": [i * 0.5, -i * 0.25], "s": rows[i]}) + "\n" for i in range(25_000))
print(len(text) + len(records), round(abs(total), 6))
