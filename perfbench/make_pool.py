"""Build ``pool.json``: the scenario seeds ``--seed`` picks from.

Usage, from the root of a checkout::

    python3 perfbench/make_pool.py [--jobs 2]

The paper scenario's size depends strongly on its seed.  Human activity
is Pareto-distributed, so the pageviews of a world swing by 1.5x between
seeds; and when a top-ranked publisher sandboxes the beacon script, a
third of the traffic goes unlogged and the logged impressions halve.  A
benchmark seed should vary the input's content, not its size, so the
pool keeps only scenarios whose run lands in narrow bands of pageviews,
ad deliveries and logged impressions.

Candidates are a fixed hash sequence.  Each is first screened on its
built world alone (cheap), then run once, untraced and fault-free, and
kept when its counts lie in the bands.  The pool is the first
:data:`POOL_SIZE` kept candidates in sequence order, so the file is
reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: World scale of every workload: the ``tiny`` preset.
SCALE = 0.01
#: Screening bands on the built world.  Expected human pageviews per unit
#: of scale (3.4M-6.0M between seeds), and the Zipf-weighted traffic
#: share of script-blocking publishers.
VOLUME_BAND = (4.85e6, 5.25e6)
BLOCKED_BAND = (0.06, 0.16)
#: Bands on the counts of one run at :data:`SCALE`.
RUN_BANDS = {"pageviews": (49_500, 52_000),
             "delivered": (1_850, 2_150),
             "logged": (1_600, 1_850)}
POOL_SIZE = 32
MAX_CANDIDATES = 20_000


def candidate(index: int) -> int:
    return int.from_bytes(
        hashlib.sha256(f"perfbench-pool/{index}".encode()).digest()[:4], "big")


def world_screen(seed: int) -> bool:
    """Whether scenario *seed*'s built world lies in the screening bands."""
    from repro.experiments import build_world, paper_experiment
    from repro.util.rng import zipf_weights

    config = paper_experiment(seed=seed, scale=SCALE)
    world = build_world(config)
    volume = 0.0
    for period in config.periods:
        days = (period.end_unix - period.start_unix) / 86_400.0
        for country in period.countries:
            volume += days * sum(device.daily_pageviews for device
                                 in world.population.in_country(country))
    publishers = world.universe.publishers
    weights = zipf_weights(len(publishers),
                           world.universe.config.zipf_exponent)
    blocked = sum(weight for weight, publisher in zip(weights, publishers)
                  if publisher.blocks_scripts) / sum(weights)
    return (VOLUME_BAND[0] <= volume / SCALE <= VOLUME_BAND[1]
            and BLOCKED_BAND[0] <= blocked <= BLOCKED_BAND[1])


def evaluate(index: int) -> dict | None:
    """Candidate *index*'s counts when it passes every band, else None."""
    from repro.experiments import ParallelExperimentRunner, paper_experiment

    seed = candidate(index)
    if not world_screen(seed):
        return None
    result = ParallelExperimentRunner(paper_experiment(seed=seed, scale=SCALE),
                                      jobs=1).run()
    counts = {name: result.stats[name] for name in RUN_BANDS}
    if all(low <= counts[name] <= high
           for name, (low, high) in RUN_BANDS.items()):
        return {"seed": seed, **counts}
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    args = parser.parse_args(argv)

    pool = []
    context = multiprocessing.get_context("spawn")
    with context.Pool(args.jobs) as workers:
        for entry in workers.imap(evaluate, range(MAX_CANDIDATES),
                                  chunksize=4):
            if entry is not None:
                pool.append(entry)
                print(json.dumps(entry), flush=True)
                if len(pool) == POOL_SIZE:
                    break
    if len(pool) < POOL_SIZE:
        print(f"error: only {len(pool)} of {MAX_CANDIDATES} candidates passed",
              file=sys.stderr)
        return 1
    document = {"scale": SCALE, "run_bands": RUN_BANDS, "scenarios": pool}
    (HERE / "pool.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
