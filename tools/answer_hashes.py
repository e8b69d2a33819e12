"""Print the answer hashes of the 30,000-instance recipe (see ROADMAP.md).

Run from the repository root:

    python tools/answer_hashes.py

The recipe draws f = _random_real_instance(rng, 1 + k % 6) for k < 30,000
from one rng = random.Random(24), with the instance generator of
tests/test_feasibility.py, and hashes the concatenated repr(feas_real_full(f))
with sha256.  The first 16 hex digits are printed twice: over the raw
reprs, whose sign-change pairs are symbolic DominantPair records, and over
the reprs with each pair expanded into its two points, the form recorded
before the pairs were symbolic.  A change that keeps every verdict, class
and certificate keeps both hashes; the test suite pins the same recipe cut
to its first 3,000 instances.

A third line hashes adisc_sign and adisc_vanish over the discriminant
recipe of tests/test_discriminant.py (disc_answer_digest: 1-D trinomials
with exponents below 2^62, circuits at n = 2 and 3, near and exact ties),
the same instances whose digest that test pins.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from sparsefeas import feas_real_full  # noqa: E402
from test_discriminant import DISC_HASH_INSTANCES, disc_answer_digest  # noqa: E402
from test_feasibility import _expanded, _random_real_instance  # noqa: E402

INSTANCES = 30_000


def main() -> None:
    rng = random.Random(24)
    raw, expanded = hashlib.sha256(), hashlib.sha256()
    for k in range(INSTANCES):
        rep = feas_real_full(_random_real_instance(rng, 1 + k % 6))
        raw.update(repr(rep).encode())
        expanded.update(repr(_expanded(rep)).encode())
    print(f"feas_real_full over {INSTANCES} instances: {raw.hexdigest()[:16]}")
    print(f"the same, sign-change pairs expanded: {expanded.hexdigest()[:16]}")
    digest = disc_answer_digest(DISC_HASH_INSTANCES)
    print(f"adisc_sign and adisc_vanish over {DISC_HASH_INSTANCES} discriminant instances: {digest}")


if __name__ == "__main__":
    main()
