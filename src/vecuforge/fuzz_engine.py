"""Seeded mutation fuzzing with a liveness oracle and input minimization.

The generator interleaves untouched corpus frames with single-mutation
variants, delivers them through a transport, and probes liveness on a
fixed cadence. A missed probe is bisected to the exact trigger frame by
probing the states the transport kept after each frame of the window
(no replay), and the trigger must then reproduce alone from a fresh
restore before it is reported. Everything is driven by one seeded PRNG
stream, so a campaign is a pure function of (seed, config, SUT config).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Protocol

from .frames import MAX_DATA_LEN, Frame

MUTATION_OPS = ("bit_flip", "byte_random", "extend", "length_field_corrupt", "truncate")
PRNG_NAME = "stdlib-mersenne-twister"


class FuzzError(ValueError):
    """Bad campaign configuration."""


class FuzzTransport(Protocol):
    """Delivery, monitoring, and state-restore surface the engine drives.

    ``send`` delivers one frame and returns the number of response
    frames it drew; ``alive`` issues one liveness probe; ``restore`` puts
    the SUT back into its pre-campaign state. ``alive_after(n)`` tells
    whether the SUT would answer a probe after only the first ``n``
    frames sent since the last restore, and leaves the current state
    where it is. A transport that keeps a state per frame answers it
    from that state; one without snapshots would restore, resend those
    ``n`` frames and probe.
    """

    def send(self, frame: Frame) -> int: ...

    def alive(self) -> bool: ...

    def alive_after(self, n: int) -> bool: ...

    def restore(self) -> None: ...


@dataclass(frozen=True)
class FuzzConfig:
    seed: int
    budget: int
    corpus: tuple[Frame, ...]
    mutation_ops: frozenset[str] = frozenset(MUTATION_OPS)
    probe_every: int = 50

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise FuzzError(f"budget must be positive, got {self.budget}")
        if not self.corpus:
            raise FuzzError("corpus must be non-empty")
        if self.probe_every < 1:
            raise FuzzError(f"probe_every must be >= 1, got {self.probe_every}")
        unknown = set(self.mutation_ops) - set(MUTATION_OPS)
        if unknown:
            raise FuzzError(f"unknown mutation ops: {sorted(unknown)}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "corpus": [f.to_line() for f in self.corpus],
            "mutation_ops": sorted(self.mutation_ops),
            "probe_every": self.probe_every,
            "prng": PRNG_NAME,
        }


@dataclass(frozen=True)
class FuzzFinding:
    trigger_input: Frame
    source_input: Frame
    position: int
    verdict_evidence: dict
    reproduced: bool
    minimized_input: Frame | None = None

    def to_dict(self) -> dict:
        return {
            "trigger_input": self.trigger_input.to_line(),
            "source_input": self.source_input.to_line(),
            "position": self.position,
            "verdict_evidence": self.verdict_evidence,
            "reproduced": self.reproduced,
            "minimized_input": (
                None if self.minimized_input is None else self.minimized_input.to_line()
            ),
        }


# -- generator -------------------------------------------------------------


@cache
def _op_order(ops: frozenset[str]) -> tuple[str, ...]:
    """The ops in the order ``mutate`` draws from; there are 31 non-empty op sets."""
    return tuple(sorted(ops))


def mutate(frame: Frame, rng: random.Random, ops: frozenset[str]) -> Frame:
    """Apply exactly one rng-chosen mutation to the frame data."""
    if not ops:
        return frame
    data = bytearray(frame.data)
    op = rng.choice(_op_order(ops))
    if op == "bit_flip":
        if not data:
            return frame
        ix = rng.randrange(len(data))
        data[ix] ^= 1 << rng.randrange(8)
    elif op == "byte_random":
        if not data:
            return frame
        data[rng.randrange(len(data))] = rng.randrange(256)
    elif op == "length_field_corrupt":
        if not data:
            return frame
        data[0] = rng.randint(len(data), 0xFF)
    elif op == "truncate":
        data = data[: rng.randint(0, max(0, len(data) - 1))]
    elif op == "extend":
        room = MAX_DATA_LEN - len(data)
        if room <= 0:
            return frame
        data.extend(rng.randrange(256) for _ in range(rng.randint(1, room)))
    return Frame(frame.id, bytes(data))


# -- campaign --------------------------------------------------------------


@dataclass
class CampaignResult:
    findings: list[FuzzFinding]
    stats: dict = field(default_factory=dict)


def _replay_prefix(transport: FuzzTransport, prefix: list[Frame]) -> bool:
    """True when the SUT survives ``prefix`` sent after a restore."""
    transport.restore()
    for frame in prefix:
        transport.send(frame)
    return transport.alive()


def _bisect_trigger(transport: FuzzTransport, checkpoint: int, dead_at: int) -> int:
    """Smallest frame count in (checkpoint, dead_at] after which the SUT is dead.

    Counts are frames sent since the last restore, as ``alive_after``
    takes them; the caller guarantees the SUT was alive after
    ``checkpoint`` frames and dead after ``dead_at``.
    """
    lo, hi = checkpoint + 1, dead_at
    while lo < hi:
        mid = (lo + hi) // 2
        if transport.alive_after(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def run_campaign(config: FuzzConfig, transport: FuzzTransport) -> CampaignResult:
    """Send ``budget`` frames, probing liveness every ``probe_every``.

    Stats count campaign traffic only; bisection probes and reproduction
    replays are bookkeeping and stay out of the numbers. A finding is
    reported only if its trigger frame alone kills a freshly restored
    SUT, deduplicated by trigger bytes.
    """
    rng = random.Random(config.seed)
    corpus = config.corpus
    budget, probe_every, ops = config.budget, config.probe_every, config.mutation_ops
    # log/sources hold only frames sent since the last restore, matching the
    # transport's kept states; base maps them back to campaign positions.
    log: list[Frame] = []
    sources: list[Frame] = []
    base = 0
    checkpoint = 0
    findings: list[FuzzFinding] = []
    seen_triggers: set[tuple[int, bytes]] = set()
    probes = responses = 0

    sent = 0
    while sent < budget:
        if sent % 5 == 0:
            source = frame = corpus[(sent // 5) % len(corpus)]
        else:
            source = rng.choice(corpus)
            frame = mutate(source, rng, ops)
        responses += transport.send(frame)
        log.append(frame)
        sources.append(source)
        sent += 1

        if sent % probe_every == 0 or sent == budget:
            probes += 1
            if transport.alive():
                checkpoint = len(log)
                continue
            kill = _bisect_trigger(transport, checkpoint, len(log))
            trigger = log[kill - 1]
            key = (trigger.id, trigger.data)
            if key not in seen_triggers and not _replay_prefix(transport, [trigger]):
                seen_triggers.add(key)
                findings.append(
                    FuzzFinding(
                        trigger_input=trigger,
                        source_input=sources[kill - 1],
                        position=base + kill - 1,
                        verdict_evidence={
                            "missed_probe_after_frame": sent,
                            "window_start": base + checkpoint,
                        },
                        reproduced=True,
                    )
                )
            transport.restore()
            base += len(log)
            log = []
            sources = []
            checkpoint = 0

    stats = {"frames_sent": sent, "probes": probes, "responses": responses}
    return CampaignResult(findings=findings, stats=stats)


# -- minimization ----------------------------------------------------------


def minimize(finding: FuzzFinding, transport: FuzzTransport) -> FuzzFinding:
    """1-minimal reduction of the trigger, verified by replay.

    Two passes repeat to a fixed point: drop any single byte, and
    restore any single byte toward the corpus source. A finding whose
    trigger no longer reproduces comes back flagged, untouched.
    """
    if _replay_prefix(transport, [finding.trigger_input]):
        return replace(finding, reproduced=False)

    current = finding.trigger_input
    changed = True
    while changed:
        changed = False
        for ix in range(len(current.data)):
            candidate = Frame(current.id, current.data[:ix] + current.data[ix + 1 :])
            if not _replay_prefix(transport, [candidate]):
                current = candidate
                changed = True
                break
        if changed:
            continue
        source = finding.source_input.data
        for ix in range(min(len(current.data), len(source))):
            if current.data[ix] == source[ix]:
                continue
            candidate = Frame(
                current.id,
                current.data[:ix] + source[ix : ix + 1] + current.data[ix + 1 :],
            )
            if not _replay_prefix(transport, [candidate]):
                current = candidate
                changed = True
                break
    transport.restore()
    return replace(finding, minimized_input=current)
