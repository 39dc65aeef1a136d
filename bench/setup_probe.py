"""One timed set-up in a fresh interpreter: import blockperm, build the given
fields (GF.parse, including extension-field tables) and parse the given
groups.  Prints the elapsed seconds.

    python3 bench/setup_probe.py --fields 7 2^8 --groups sym:7
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fields", nargs="*", default=[])
    ap.add_argument("--groups", nargs="*", default=[])
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from blockperm import gfq
    from blockperm.permgrp import parse_group
    for spec in args.fields:
        gfq.GF.parse(spec)
    for spec in args.groups:
        parse_group(spec)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
