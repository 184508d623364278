#!/usr/bin/env python3
"""Run every acceptance criterion and print one pass/fail line each.

Exit code is the number of failing criteria.  Two known-red lines (06 and
12b) are documented in the README.
"""

from slicedeg.acceptance import run_all


def main() -> int:
    results = run_all()
    for r in results:
        print(r.line(), flush=True)
    failures = sum(1 for r in results if not r.passed)
    print(f"\n{len(results) - failures}/{len(results)} criteria passed")
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
