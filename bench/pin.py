"""Pin the expected verdicts of the q2cnf-branch pools.

    python3 bench/pin.py

q2cnf-branch instances are too large for the oracle and their cover game
is not closed (the width-2 part links the cover to the rest), so their
verdicts are pinned: every pool instance is solved with
qbd.special.dispatch, and bench/pins.json records per seed a digest of the
pool and one 0/1 character per instance, for seeds 0 to 127. A run on a
pinned seed checks every verdict against them; a run on another seed
checks each instance's timed verdicts for agreement with its first one
only. It takes about 25 minutes on one core of a 2-core VM. Rerun
this only when gen.py changes, which the digest check reports; it
rewrites the whole file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import gen  # noqa: E402
from workload import pool_digest, solve_text  # noqa: E402

PINNED = "q2cnf-branch"
SEEDS = range(128)


def main() -> int:
    table = {}
    for seed in SEEDS:
        texts = [gen.instance(PINNED, seed, i).text for i in range(gen.POOL[PINNED])]
        verdicts = "".join("1" if solve_text(t).value else "0" for t in texts)
        table[str(seed)] = {"sha": pool_digest(texts), "verdicts": verdicts}
        print(f"{PINNED} seed {seed}: {verdicts}", flush=True)
    path = HERE / "pins.json"
    path.write_text(json.dumps({PINNED: table}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
