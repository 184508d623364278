#!/usr/bin/env python3
"""Run the acceptance criteria and print one pass/fail line each.

    python scripts/run_acceptance.py            # every criterion
    python scripts/run_acceptance.py 08 12a     # only criteria 08 and 12a

A criterion's id is the number in its name (01 ... 12c).  The exit code is
the number of failing criteria run; an unknown id exits with 2.  Two
known-red lines (06 and 12b) are documented in the README.
"""

import argparse

from slicedeg.acceptance import ALL_CRITERIA

CRITERIA = {fn.__name__.split("_")[1]: fn for fn in ALL_CRITERIA}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help=f"criteria to run: {' '.join(CRITERIA)}")
    ids = parser.parse_args(argv).ids or list(CRITERIA)
    unknown = [i for i in ids if i not in CRITERIA]
    if unknown:
        parser.error(f"unknown criterion id(s): {' '.join(unknown)}")
    results = []
    for i in ids:
        results.append(CRITERIA[i]())
        print(results[-1].line(), flush=True)
    failures = sum(1 for r in results if not r.passed)
    print(f"\n{len(results) - failures}/{len(results)} criteria passed")
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
