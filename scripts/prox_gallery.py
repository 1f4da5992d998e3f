"""Tabulate scalar prox curves for a family of regularizers.

Writes one (t, prox) CSV per entry under results/gallery/, ready to plot.
Equivalent to `threshgrad gallery <spec.ini>` for each spec.
"""

import sys

from threshgrad.cli import GallerySpec, emit_prox_gallery
from threshgrad.regularizers import Interval, PowerPenalty, ZeroPenalty

CURVES = [
    # name, interval, penalty, box
    ("l1", Interval(-1.0, 1.0), ZeroPenalty(), None),
    ("asymmetric_box", Interval(-0.5, 1.5), ZeroPenalty(), None),
    ("power2", Interval(-1.0, 1.0), PowerPenalty(2.0), None),
    ("power4", Interval(-1.0, 1.0), PowerPenalty(4.0), None),
    ("power15_box", Interval(-1.0, 1.0), PowerPenalty(1.5), (-1.0, 1.0)),
]


def main() -> int:
    for name, interval, penalty, box in CURVES:
        spec = GallerySpec(
            lo=-3.0,
            hi=3.0,
            steps=601,
            out_path=f"results/gallery/{name}.csv",
            lam=0.5,
            interval=interval,
            penalty=penalty,
            box=box,
        )
        emit_prox_gallery(spec)
        print(f"wrote {spec.out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
