"""Keyed random-number streams.

Every stochastic component draws from its own child generator, keyed by
integers (replication index, purpose tag, ...) under a single experiment
seed. Streams derived this way are independent of each other and of the
order in which they are created, so replications can run concurrently and
still reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Values are part of the reproducibility contract: changing
# them changes every trace. A replication's streams are keyed (rep, purpose)
# with an engine tag, all below 100. A stream drawn outside the replications
# puts a tag from 100 up in the purpose place, so no replication requests
# it, whatever the replication count.
NOISE = 0
CONFIDENCE = 1
PATHS = 2
CANDIDATES = 3
INITIAL = 4
INSTANCE = 5
FEATURES = 6
# Confidence sequence k of a conditional-regret study: key (k, ZETA_SEQUENCES).
ZETA_SEQUENCES = 100
# Configuration i of the optimum-bound sweep: key (LEMMA_SWEEP, i), the one
# tag in the replication's place. The sweep runs no replications, so no key
# of its run is a replication's.
LEMMA_SWEEP = 101


def substream(base_seed: int, *key: int) -> np.random.Generator:
    """Child generator for ``(base_seed, *key)``, independent of call order."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def as_generator(seed) -> np.random.Generator:
    """Accept an integer seed or a ready Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
