"""Pluggable replica placement: where copies of a line may live.

The paper fixes placement as a candidate-*distance* walk from the home
set (Distance-1/Distance-N/2 in Section 5.1, the power-2 multi-attempt
sequence in Section 5.5, Distance-N/4 for second replicas).  This module
lifts that decision into a first-class policy so placement becomes a
swept experimental axis instead of a constant baked into two hot paths:

* :class:`DistanceWalk` — the paper's scheme, bit-identical to the
  previously inlined lists: a placement attempt walks
  ``(home + d) % n_sets`` over the configured distances.  Built whenever
  :attr:`ICRConfig.placement` is ``None``, so every pre-existing scheme
  is untouched by the refactor.
* :class:`PowerOfTwoMultiAttempt` — the Section 5.5 sequence
  (:func:`~repro.core.config.power2_distances`) as a named policy.
* :class:`HashRing` — consistent-hash-ring placement with replication
  factor N: every set contributes ``virtual_nodes`` points on a ring,
  a line hashes to a ring position, and its replica *i* walks the
  distinct-set successor window starting at offset *i* (``attempts``
  candidate sets per replica, home set excluded).  Adding sets moves
  only a 1/n_sets fraction of lines — the classic consistent-hashing
  property — and the successor window doubles as the fallback walk when
  the preferred set has no victim.

Both kernels consume the same policy object through two views:

* **home-pure** policies (``ring is None``): the walk depends only on
  the home set, so the kernels keep their original distance loops —
  ``distances`` / ``second_distances`` / ``all_distances`` are resolved
  here exactly as ``ReplicationPolicy.__init__`` used to.
* **ring** policies: per-line candidate *sets* come from
  :meth:`HashRing.lookup`, a precomputed per-slot candidate table plus a
  per-line memo, so the SoA array kernel's fused loop pays one dict
  probe per placement — the same shape as its distance path.

The knobs travel as plain scalars inside ``ExperimentSpec.scheme_kwargs``
(``placement="ring"``, ``replication_factor``, ``virtual_nodes``,
``ring_attempts``, ``ring_hash``), so they are cache-key-affecting and
wire-safe without any spec format change.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import power2_distances

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ICRConfig

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_WEYL = 0xD1B54A32D192ED03


def mix64(x: int) -> int:
    """SplitMix64/Murmur3 finalizer: a cheap, well-mixed 64-bit hash."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 29
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 32
    return x


@dataclass(frozen=True)
class PlacementSpec:
    """The wire-safe description of a placement policy.

    Lives on :attr:`ICRConfig.placement`; ``None`` there means the
    paper's distance walk.  ``kind`` selects the policy class,
    the remaining knobs parameterize it:

    * ``"ring"`` — :class:`HashRing` with ``replication_factor``
      replicas, ``virtual_nodes`` ring points per set, an
      ``attempts``-set fallback walk per replica, and ``hash_mode``
      either ``"mix"`` (hashed ring) or ``"identity"`` (sets laid out
      in order — makes ring placement distance-equivalent, used by the
      paper-pin tests).
    * ``"power2"`` — :class:`PowerOfTwoMultiAttempt` with ``attempts``
      candidate sets.
    * ``"distance"`` — explicit spelling of the default walk.
    """

    kind: str = "distance"
    replication_factor: int = 1
    virtual_nodes: int = 8
    attempts: int = 4
    hash_mode: str = "mix"

    def __post_init__(self) -> None:
        if self.kind not in ("distance", "power2", "ring"):
            raise ValueError(f"unknown placement kind {self.kind!r}")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        if self.attempts < 1:
            raise ValueError("placement attempts must be >= 1")
        if self.hash_mode not in ("mix", "identity"):
            raise ValueError(f"unknown ring hash mode {self.hash_mode!r}")


class PlacementPolicy:
    """Base class: an ordered candidate-set walk per replica of a line.

    ``home_pure`` policies expose the classic distance lists and leave
    the kernels' ``(home + d) % n`` loops intact; ring policies answer
    per-line through :meth:`HashRing.lookup`.
    """

    #: True when the walk depends only on the home set (distance lists).
    home_pure = True
    kind = "distance"

    #: Resolved first-replica / second-replica / probe-order distances.
    distances: tuple[int, ...] = ()
    second_distances: tuple[int, ...] = ()
    all_distances: tuple[int, ...] = ()


class DistanceWalk(PlacementPolicy):
    """The paper's candidate-distance walk (bit-identical default).

    Resolution matches the pre-refactor ``ReplicationPolicy.__init__``
    exactly: first-replica distances from the config, the Distance-N/4
    fallback when hints may request an unconfigured second replica, and
    the ordered-dedupe probe list.
    """

    home_pure = True
    kind = "distance"

    def __init__(
        self,
        distances: tuple[int, ...],
        second_distances: tuple[int, ...],
        all_distances: tuple[int, ...],
    ):
        self.distances = distances
        self.second_distances = second_distances
        self.all_distances = all_distances

    @classmethod
    def from_config(cls, config: "ICRConfig") -> "DistanceWalk":
        distances = config.resolved_distances()
        # Second-replica placement falls back to Distance-N/4 (the
        # paper's choice) when software hints request two replicas but
        # the config did not set explicit second distances.
        second = config.resolved_second_distances() or (
            config.geometry.n_sets // 4,
        )
        all_distances = config.all_replica_distances()
        if config.hints is not None:
            # Hints may place second replicas at the fallback distance.
            for d in second:
                if d not in all_distances:
                    all_distances = all_distances + (d,)
        return cls(distances, second, all_distances)


class PowerOfTwoMultiAttempt(DistanceWalk):
    """Section 5.5's N/2 ± N/2^k multi-attempt sequence as a policy."""

    kind = "power2"

    def __init__(self, n_sets: int, attempts: int):
        seq = tuple(power2_distances(n_sets, attempts))
        super().__init__(seq, (n_sets // 4,), seq)
        self.attempts = attempts


class HashRing(PlacementPolicy):
    """Consistent-hash-ring placement with replication factor N.

    Every set owns ``virtual_nodes`` ring positions; a line hashes to a
    position and takes the next ``replication_factor + attempts - 1``
    *distinct* sets clockwise (home set excluded) as its candidate
    window.  Replica *i* (0-based) tries ``window[i : i + attempts]``,
    so preferred sets are disjoint across replicas while fallbacks
    overlap — the SNIPPETS.md successor-walk idiom.  The window is also
    the replica probe order on loads.

    The walk is key-independent given the starting ring slot, so a
    per-slot candidate table is precomputed once and per-line lookups
    are a hash + bisect + memo — cheap enough for the SoA fused loop.
    """

    home_pure = False
    kind = "ring"

    def __init__(
        self,
        n_sets: int,
        *,
        replication_factor: int = 1,
        virtual_nodes: int = 8,
        attempts: int = 4,
        hash_mode: str = "mix",
    ):
        if n_sets < 2:
            raise ValueError("a hash ring needs at least 2 sets")
        spec = PlacementSpec(  # reuse its validation
            kind="ring",
            replication_factor=replication_factor,
            virtual_nodes=virtual_nodes,
            attempts=attempts,
            hash_mode=hash_mode,
        )
        self.n_sets = n_sets
        self.replication_factor = spec.replication_factor
        self.virtual_nodes = spec.virtual_nodes
        self.attempts = spec.attempts
        self.hash_mode = spec.hash_mode
        self._set_mask = n_sets - 1
        self._identity = hash_mode == "identity"
        # The candidate window must cover every replica's fallback walk:
        # replica N-1 ends at offset (N-1) + attempts - 1.
        window = replication_factor + attempts - 1
        self.window_len = min(window, n_sets - 1)

        points: list[tuple[int, int]] = []
        if self._identity:
            for s in range(n_sets):
                for v in range(virtual_nodes):
                    points.append((s * virtual_nodes + v, s))
        else:
            for s in range(n_sets):
                for v in range(virtual_nodes):
                    points.append((mix64((s + 1) * _GOLDEN ^ (v + 1) * _WEYL), s))
        points.sort()
        self._positions = [p for p, _ in points]
        ring_sets = [s for _, s in points]
        n_points = len(points)

        # Per-slot distinct-set successor walks, one set longer than the
        # window so excluding the home set still leaves a full window.
        need = min(self.window_len + 1, n_sets)
        table: list[tuple[int, ...]] = []
        for i in range(n_points):
            seen: set[int] = set()
            walk: list[int] = []
            j = i
            while len(walk) < need:
                s = ring_sets[j % n_points]
                if s not in seen:
                    seen.add(s)
                    walk.append(s)
                j += 1
            table.append(tuple(walk))
        self._slot_walk = table
        # block_addr -> (window, {set: probe position}, replica walks)
        self._memo: dict[int, tuple] = {}

    def _key_position(self, block_addr: int) -> int:
        if self._identity:
            # A line lands exactly on its home set's first point, so the
            # successor walk is home+1, home+2, ... — distance-equivalent.
            return (block_addr & self._set_mask) * self.virtual_nodes
        return mix64(block_addr * _GOLDEN + _WEYL)

    def lookup(self, block_addr: int) -> tuple:
        """``(window, position-map, replica walks)`` for one line.

        ``window`` is the ordered candidate sets (probe order on loads),
        ``position-map`` maps a set index to its window position (used
        to rank live replicas and charge probe energy), and
        ``replica walks`` holds the per-replica fallback walks fed to
        the kernels' placement loops.
        """
        entry = self._memo.get(block_addr)
        if entry is None:
            home = block_addr & self._set_mask
            pos = self._key_position(block_addr)
            slot = bisect.bisect_right(self._positions, pos) % len(self._positions)
            walk = self._slot_walk[slot]
            window = tuple(s for s in walk if s != home)[: self.window_len]
            a = self.attempts
            walks = tuple(
                window[i : i + a] for i in range(self.replication_factor)
            )
            entry = (window, {s: i for i, s in enumerate(window)}, walks)
            self._memo[block_addr] = entry
        return entry


def build_placement(config: "ICRConfig") -> PlacementPolicy:
    """The policy object for one config; ``placement=None`` → the paper."""
    spec = config.placement
    if spec is None or spec.kind == "distance":
        return DistanceWalk.from_config(config)
    n_sets = config.geometry.n_sets
    if spec.kind == "power2":
        return PowerOfTwoMultiAttempt(n_sets, spec.attempts)
    if spec.kind == "ring":
        return HashRing(
            n_sets,
            replication_factor=spec.replication_factor,
            virtual_nodes=spec.virtual_nodes,
            attempts=spec.attempts,
            hash_mode=spec.hash_mode,
        )
    raise ValueError(f"unknown placement kind {spec.kind!r}")
