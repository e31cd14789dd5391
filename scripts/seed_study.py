#!/usr/bin/env python3
"""Sweep the bundled experiments over seeds and tabulate the statistics.

Useful for judging how seed-sensitive each qualitative finding is before
trusting a single run. The bundled seeds are the ones whose margins were
checked when the experiments were frozen; arbitrary seeds can and do
land harder task draws (banded information can vanish entirely when the
panel crushes every in-band opponent).
"""

import argparse
import sys

from arena import experiments as ex


def study_within(seed: int) -> str:
    v, _ = ex.run_within(seed)
    return f"rho={v['spearman_iteration_vs_rating']:+.4f}"


def study_banded(seed: int) -> str:
    v, _ = ex.run_banded(seed)
    return (f"frac={v['match_fraction']:.2f} "
            f"rho_rating={v['spearman_full_vs_banded_rating']:+.4f} "
            f"rho_winrate={v['spearman_full_vs_banded_win_rate']:+.4f}")


def study_chekhov(seed: int) -> str:
    v, _ = ex.run_chekhov(seed)
    return (f"forget={v['corr_rating_vs_quality_forgetting_post_mastery']:.4f} "
            f"chekhov={v['corr_rating_vs_quality_chekhov_post_mastery']:.4f} "
            f"gap={v['post_mastery_gap']:+.4f}")


def study_distortion(seed: int) -> str:
    v, _ = ex.run_distortion(seed)
    return (f"inversions={len(v['inversions'])} "
            f"span={v['ratings'][0] - v['ratings'][-1]:.0f}pts")


def study_multi(seed: int) -> str:
    v, _ = ex.run_multi(seed)
    rhos = ",".join(f"{x:+.2f}"
                    for x in v["spearman_by_run_pre_mastery"].values())
    return (f"rho=[{rhos}] spread={v['mastered_cluster_spread']:.1f} "
            f"oracle_sep={v['noise_oracle_win_rate_separation']:.3f}")


STUDIES = {"within": study_within, "banded": study_banded,
           "chekhov": study_chekhov, "distortion": study_distortion,
           "multi": study_multi}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiments", nargs="+", default=list(STUDIES),
                        choices=list(STUDIES), metavar="NAME")
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(ex.STUDY_SEEDS))
    args = parser.parse_args(argv)

    for name in args.experiments:
        print(f"== {name} ==")
        for seed in args.seeds:
            print(f"  seed {seed:3d}: {STUDIES[name](seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
