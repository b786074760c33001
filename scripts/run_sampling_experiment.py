#!/usr/bin/env python3
"""Sampling-consistency experiment for the causal-network estimator.

For a fixed random hidden-variable network, compares the CHSH estimate at two
sample sizes across many seeds: the bigger run should land closer to the exact
value almost every time, and the 5-sigma interval should almost always cover.
"""

from __future__ import annotations

import argparse

import numpy as np

from bellkit import NetworkSpec, estimate_chsh, exact_chsh, random_model, sample


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--coarse", type=int, default=10_000)
    parser.add_argument("--fine", type=int, default=1_000_000)
    parser.add_argument("--spec-seed", type=int, default=8)
    args = parser.parse_args()

    spec = NetworkSpec(model=random_model(np.random.default_rng(args.spec_seed), n_lambda=3))
    exact = exact_chsh(spec)
    print(f"hidden values: {spec.model.size}, exact S = {exact:.9f}")

    fine_wins = 0
    covered = 0
    gaps = []
    for seed in range(args.trials):
        coarse = estimate_chsh(sample(spec, args.coarse, seed=seed))
        fine = estimate_chsh(sample(spec, args.fine, seed=args.trials + seed))
        fine_wins += abs(fine.s - exact) < abs(coarse.s - exact)
        covered += abs(fine.s - exact) <= 5.0 * fine.stderr
        gaps.append(abs(fine.s - exact))
    gaps = np.array(gaps)
    print(f"trials: {args.trials}, coarse n = {args.coarse}, fine n = {args.fine}")
    print(f"fine estimate closer than coarse: {fine_wins}/{args.trials}")
    print(f"fine estimate within 5 stderr:    {covered}/{args.trials}")
    print(f"fine |gap|: median {np.median(gaps):.2e}, max {gaps.max():.2e}")


if __name__ == "__main__":
    main()
