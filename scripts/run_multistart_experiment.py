#!/usr/bin/env python3
"""Maximal CHSH values of random pure states.

Computes the largest |S| of a batch of random pure states (closed form,
2*sqrt(s1^2 + s2^2) from the correlation matrix's singular values) and shows
how often and how far they exceed the local bound of 2, up to the 2*sqrt(2)
ceiling.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from bellkit import TSIRELSON, random_pure_state, seesaw_maximize


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--states", type=int, default=500, help="random-state batch size")
    parser.add_argument("--seed", type=int, default=0, help="seed for the state batch")
    args = parser.parse_args()

    print(f"== {args.states} random pure states ==")
    rng = np.random.default_rng(args.seed)
    best = np.array([
        seesaw_maximize(random_pure_state(rng), seed=k).best_s
        for k in range(args.states)
    ])
    print(f"max over batch  = {best.max():.12f} (ceiling excess {best.max() - TSIRELSON:+.2e})")
    print(f"median          = {np.median(best):.6f}")
    print(f"share above 2   = {(best > 2.0 + 1e-9).mean():.1%}  "
          "(states whose best settings beat every local model)")
    hist, edges = np.histogram(best, bins=np.linspace(2.0, TSIRELSON, 9))
    for lo, hi, count in zip(edges[:-1], edges[1:], hist):
        bar = "#" * int(math.ceil(60 * count / max(1, hist.max())))
        print(f"  [{lo:.3f}, {hi:.3f})  {count:4d}  {bar}")


if __name__ == "__main__":
    main()
