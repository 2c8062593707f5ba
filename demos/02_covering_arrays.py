"""Shrink a test matrix with covering arrays instead of testing everything.

A diagnostic write can vary by session, data identifier and payload.
Testing the full cartesian product grows multiplicatively; a covering
array keeps every pairwise (or 3-way) value combination while cutting
the row count, and defects that depend on at most t parameters still
show up.
"""

import itertools
import math

from vecuforge.tcg import covering_array

DOMAINS = {
    "SESSION": ["0x01", "0x02", "0x03"],
    "DID": ["0xf190", "0xf187"],
    "VALUE": ["0x0000", "0xbeef"],
}


def show(array) -> None:
    header = " | ".join(f"{p:>8}" for p in array.parameters)
    print(f"    {header}")
    for row in array.rows:
        print("    " + " | ".join(f"{v:>8}" for v in row))


def coverage_is_total(array) -> bool:
    k = len(array.parameters)
    for combo in itertools.combinations(range(k), array.strength):
        domains = [array.domains[array.parameters[i]] for i in combo]
        for wanted in itertools.product(*domains):
            if not any(tuple(r[i] for i in combo) == wanted for r in array.rows):
                return False
    return True


def main() -> None:
    full = math.prod(len(v) for v in DOMAINS.values())
    print(f"domains: " + ", ".join(f"{k}({len(v)})" for k, v in DOMAINS.items()))
    print(f"exhaustive matrix: {full} rows\n")

    pairwise = covering_array(DOMAINS, t=2)
    print(f"pairwise (t=2): {len(pairwise.rows)} rows, "
          f"every value pair present: {coverage_is_total(pairwise)}")
    show(pairwise)

    threeway = covering_array(DOMAINS, t=3)
    print(f"\n3-way (t=3) degenerates to the full product here: "
          f"{len(threeway.rows)} rows")

    wide = {f"p{i}": ["off", "low", "high", "max"] for i in range(5)}
    array = covering_array(wide, t=2)
    print(f"\n5 parameters x 4 levels: exhaustive would be {4 ** 5} rows, "
          f"pairwise needs {len(array.rows)} "
          f"(coverage verified: {coverage_is_total(array)})")

    wider = {f"p{i:02d}": ["off", "low", "high", "max"] for i in range(12)}
    array = covering_array(wider, t=2)
    print(f"12 parameters x 4 levels: exhaustive would be {4 ** 12:,} rows, "
          f"pairwise needs {len(array.rows)} "
          f"(coverage verified: {coverage_is_total(array)})")


if __name__ == "__main__":
    main()
