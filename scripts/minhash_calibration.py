#!/usr/bin/env python3
"""Measure signature estimator error and LSH banding detection rates.

Sweeps signature length for the estimator and similarity for the banding
stage, comparing measured detection against the closed form
1 - (1 - s^r)^b. Useful when picking k/bands/rows for a new corpus. A last
sweep gives the estimator's root-mean-square error and bias at k = 256 by
union size (8 to 800 elements) and Jaccard similarity (0.5, 0.8, 0.9);
run it with ``PYTHONPATH`` set to two source trees to compare their
signatures on the same set pairs.
"""

import argparse
import math
import random

from refinery.dedup import ShingleSet, estimate_jaccard, lsh_candidates, signature


def set_pair(rng, similarity, union_size):
    inter = round(similarity * union_size)
    common = [rng.getrandbits(64) for _ in range(inter)]
    rest = [rng.getrandbits(64) for _ in range(union_size - inter)]
    cut = len(rest) // 2
    return (
        ShingleSet(frozenset(common + rest[:cut]), 5),
        ShingleSet(frozenset(common + rest[cut:]), 5),
    )


def estimator_sweep(rng, trials, union_size):
    print("estimator error by signature length")
    print(f"{'k':>6} {'mean abs err':>12} {'max abs err':>12}")
    for k in (64, 128, 256, 512):
        errs = []
        for t in range(trials):
            s = rng.choice([i / 10 for i in range(1, 10)])
            a, b = set_pair(rng, s, union_size)
            exact = len(a.shingles & b.shingles) / len(a.shingles | b.shingles)
            est = estimate_jaccard(signature(a, k, t), signature(b, k, t))
            errs.append(abs(est - exact))
        print(f"{k:>6} {sum(errs) / len(errs):>12.4f} {max(errs):>12.4f}")


def banding_sweep(rng, trials, union_size, bands, rows):
    k = bands * rows
    print(f"\nbanding detection, b={bands} r={rows} (k={k})")
    print(f"{'s':>6} {'measured':>10} {'closed form':>12}")
    for s10 in range(1, 10):
        s = s10 / 10
        hits = 0
        for t in range(trials):
            a, b = set_pair(rng, s, union_size)
            sigs = {"a": signature(a, k, t), "b": signature(b, k, t)}
            hits += bool(lsh_candidates(sigs, bands, rows))
        formula = 1 - (1 - s**rows) ** bands
        print(f"{s:>6.1f} {hits / trials:>10.3f} {formula:>12.3f}")


def set_size_sweep(rng, trials, k=256):
    print(f"\nestimator error by union size, k={k}")
    print(f"{'size':>6} {'J':>5} {'rmse':>8} {'bias':>8}")
    for union_size in (8, 20, 50, 120, 300, 800):
        for similarity in (0.5, 0.8, 0.9):
            errs = []
            for t in range(trials):
                a, b = set_pair(rng, similarity, union_size)
                exact = len(a.shingles & b.shingles) / len(a.shingles | b.shingles)
                errs.append(estimate_jaccard(signature(a, k, t), signature(b, k, t)) - exact)
            rmse = math.sqrt(sum(e * e for e in errs) / trials)
            print(f"{union_size:>6} {similarity:>5.1f} {rmse:>8.4f} {sum(errs) / trials:>+8.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--union-size", type=int, default=600)
    parser.add_argument("--bands", type=int, default=16)
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    estimator_sweep(rng, args.trials, args.union_size)
    banding_sweep(rng, args.trials, args.union_size, args.bands, args.rows)
    set_size_sweep(rng, args.trials)


if __name__ == "__main__":
    main()
