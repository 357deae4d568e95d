#!/usr/bin/env python3
"""Sweep the heat-kernel estimate ratios over a parameter grid.

Writes one CSV (schema: q,n,alpha,re_z,im_z,k_x,abs_K,bound_ratio,l1_ratio)
per parameter triple, or everything concatenated to stdout.  The recorded
maxima are the constants the regression baselines guard.

Usage:
    python scripts/kernel_sweep.py --qs 2 3 --ns 1 2 --alphas 0.5 1 2
    python scripts/kernel_sweep.py --qs 2 --ns 1 --alphas 1 --out-dir sweeps/
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qharm.cli import sweep_csv
from qharm.field import FieldParams
from qharm.verification import kernel_sweep_rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qs", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--ns", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--out-dir", type=str, default=None)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for q in args.qs:
        for n in args.ns:
            for alpha in args.alphas:
                params = FieldParams(q, n, alpha)
                rows = kernel_sweep_rows(params)
                text = sweep_csv(rows)
                max_b = max(r["bound_ratio"] for r in rows)
                max_l = max(r["l1_ratio"] for r in rows)
                if out_dir:
                    path = out_dir / f"kernel_q{q}_n{n}_a{alpha}.csv"
                    path.write_text(text + "\n")
                    print(
                        f"q={q} n={n} alpha={alpha}: {len(rows)} rows -> {path} "
                        f"(max bound_ratio {max_b:.4f}, max l1_ratio {max_l:.4f})"
                    )
                else:
                    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
