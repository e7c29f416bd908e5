"""The chain family and seeded random games.

Random games use a fixed, portable PRNG (splitmix64 seeding xoshiro256**,
both implemented bit-exactly from the public reference code) so that
identical parameters produce byte-identical games on every platform.  The
draw order per vertex is fixed and part of the contract: priority, owner,
out-degree, then successors (rejection-sampled until distinct).
"""

from __future__ import annotations

from .game import EVEN, Game

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; used here only to seed the main generator."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** 1.0, state initialised from four splitmix64 outputs."""

    def __init__(self, seed: int):
        sm = SplitMix64(seed)
        self._s = [sm.next_u64() for _ in range(4)]

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled to avoid modulo
        bias (keeps the stream portable and exactly reproducible)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def gen_random(n: int, d: int, pmax: int, seed: int) -> Game:
    """Seeded random game: ``n`` vertices, priorities uniform in
    ``[0, pmax]``, owners uniform, and between 1 and ``d`` distinct
    successors per vertex."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if pmax < 0:
        raise ValueError("pmax must be >= 0")
    rng = Xoshiro256StarStar(seed)
    priority = []
    owner = []
    successors = []
    max_deg = min(d, n)
    for _ in range(n):
        priority.append(rng.below(pmax + 1))
        owner.append(rng.below(2))
        k = 1 + rng.below(max_deg)
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(rng.below(n))
        successors.append(sorted(targets))
    return Game(priority, owner, successors)


def gen_chain(n: int, p_chain: int, o_chain: int, p_sink: int) -> Game:
    """Chain of ``n`` identical vertices feeding a self-looping sink.

    The chain vertices (indices ``0..n-1``) all carry priority ``p_chain``
    and owner ``o_chain``; the sink (index ``n``) carries ``p_sink`` and is
    even-owned.  The family separates counting-sensitive from
    counting-insensitive reduction: its stuttering quotient has two
    vertices for every ``n`` while the strong quotient keeps all ``n+1``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    priority = [p_chain] * n + [p_sink]
    owner = [o_chain] * n + [EVEN]
    successors = [[i + 1] for i in range(n)] + [[n]]
    return Game(priority, owner, successors)

