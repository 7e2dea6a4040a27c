#!/usr/bin/env python3
"""Recompute the equivariant Serre polynomial of the moduli space of stable
one-pointed genus-3 curves from the embedded table of open-moduli data, and
show the boundary contribution obtained by withholding the open part.

Usage: python3 scripts/reproduce_headline.py [--truncation N]
"""

import argparse
import sys

from stablemoduli.dataset import embedded_dataset
from stablemoduli.pipeline import (
    build_slot_report,
    closed_moduli_series,
    open_moduli_series,
)
from stablemoduli.series import Truncation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--truncation", type=int, default=5, help="lambda-exponent bound (default 5)"
    )
    args = parser.parse_args()
    if args.truncation < 5:
        print("error: the (3,1) slot sits at lambda^5; need --truncation >= 5",
              file=sys.stderr)
        return 2

    table = embedded_dataset()
    trunc = Truncation.standard(args.truncation)

    closed = closed_moduli_series(open_moduli_series(table, trunc))
    report = build_slot_report(closed, 3, 1)

    print(report.render_text())
    print()

    open_rank = table.entries[(3, 1)].rank(0, 1)
    withheld = closed_moduli_series(
        open_moduli_series(table.withhold(3, 1), trunc)
    )
    boundary = withheld.rank(5, 1)
    print(f"open part:         {open_rank.render_q()}")
    print(f"boundary part:     {boundary.render_q()}")
    residual = report.rank - open_rank - boundary
    print(f"open + boundary == closed: {'yes' if not residual else 'NO'}")
    return 0 if not residual else 1


if __name__ == "__main__":
    sys.exit(main())
