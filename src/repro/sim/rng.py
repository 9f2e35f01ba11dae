"""Deterministic, named random-number streams.

Every stochastic element of a scenario (network jitter, task durations, fault
inter-arrival times, scheduler tie-breaking ...) draws from its own named
stream derived from a single master seed.  This gives two properties the
paper's confined-cluster methodology was after:

* **reproducibility** — the same scenario seed always produces the same run;
* **variance isolation** — changing, say, the fault model does not perturb the
  task-duration draws, so sweeps compare like with like.

A third property rides on top for paired policy comparisons: streams whose
name starts with the ``crn.`` prefix re-key off an optional *common random
numbers* seed (``crn_seed``) instead of the master seed.  Two runs that
differ in master seed (or in nothing but the policy under test) but share a
``crn_seed`` draw identical fault/churn schedules from their ``crn.*``
streams, so survival differences between policy arms are attributable to
the policies rather than to fault-schedule noise.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["CRN_PREFIX", "RandomStreams", "jitter_factor"]

#: stream-name prefix whose streams re-key off ``crn_seed`` when it is set.
CRN_PREFIX = "crn."


def jitter_factor(rng: np.random.Generator, fraction: float) -> float:
    """One multiplicative jitter draw in ``[1 - fraction, 1 + fraction)``.

    Bit-identical to ``float(rng.uniform(1 - fraction, 1 + fraction))`` —
    numpy computes ``low + (high - low) * next_double`` — and consumes the
    same single double, without ``uniform``'s per-call argument handling.
    """
    low = 1.0 - fraction
    return low + ((1.0 + fraction) - low) * rng.random()


class RandomStreams:
    """A factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0, crn_seed: int | None = None) -> None:
        self.master_seed = int(master_seed)
        #: common-random-numbers seed for ``crn.*`` streams; ``None`` keys
        #: them off the master seed like every other stream.  May be set any
        #: time before the first ``crn.*`` stream is created.
        self.crn_seed = None if crn_seed is None else int(crn_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            base = self.master_seed
            if self.crn_seed is not None and name.startswith(CRN_PREFIX):
                base = self.crn_seed
            digest = hashlib.sha256(f"{base}:{name}".encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "little")
            generator = np.random.default_rng(seed)
            self._streams[name] = generator
        return generator

    def fingerprint(self, prefixes: tuple[str, ...] = ()) -> dict[str, str]:
        """Digest of each stream's current generator state, by stream name.

        ``prefixes`` restricts the fingerprint to streams whose name starts
        with any of them (empty = all streams).  Two runs whose fingerprints
        match created the same streams *and* consumed the same number of
        draws from each — the paired-CRN sweeps assert exactly this for the
        fault streams of two policy arms.
        """
        out: dict[str, str] = {}
        for name in sorted(self._streams):
            if prefixes and not any(name.startswith(p) for p in prefixes):
                continue
            state = self._streams[name].bit_generator.state
            payload = json.dumps(state, sort_keys=True, default=str)
            out[name] = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        return out

    def __call__(self, name: str) -> np.random.Generator:
        return self.stream(name)

    def bound(self, name: str, method: str = "random"):
        """Pre-resolved draw handle: the bound ``method`` of stream ``name``.

        Hot paths (e.g. the per-message loss roll in the transport) call the
        returned bound method directly, skipping both the stream-registry
        lookup and the generator attribute lookup on every draw.  The handle
        stays coupled to the named stream, so by-name draws and handle draws
        consume the same deterministic sequence.
        """
        return getattr(self.stream(name), method)

    # -- convenience draws used across the codebase -------------------------
    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return float(self.stream(name).exponential(mean))

    def choice(self, name: str, options: list) -> object:
        """Pick one element of ``options`` uniformly from stream ``name``."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        index = int(self.stream(name).integers(0, len(options)))
        return options[index]

    def shuffled(self, name: str, items: list) -> list:
        """Return a shuffled copy of ``items`` using stream ``name``."""
        out = list(items)
        self.stream(name).shuffle(out)
        return out

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory (e.g. one per node) from this one.

        The CRN seed propagates, so a child's ``crn.*`` streams stay paired
        across arms the same way the parent's do.
        """
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return RandomStreams(
            int.from_bytes(digest[8:16], "little"), crn_seed=self.crn_seed
        )
