"""Seeded mutation fuzzing with a liveness oracle and input minimization.

The generator interleaves untouched corpus frames with single-mutation
variants, delivers them through a transport, and probes liveness on a
fixed cadence. The transport says exactly when the SUT goes down, and a
down SUT stays down until a restore, so a probe window ends at the frame
that crashed the SUT; a missed probe names that frame as the trigger,
which must then reproduce alone from a fresh restore before it is
reported.

Each probe window draws from its own byte stream: the 64-byte
``hashlib.blake2b`` digests of the text ``f"{seed}:{start}:{block}"``
(``start`` the window's first frame index) for block 0, 1, 2, ...,
concatenated and taken one byte at a time. So the frames a window offers
depend only on (seed, window start, corpus, ops); the SUT decides only
how many of them are delivered. A seeded build and a control build
therefore get the same frames, and a campaign is a pure function of
(seed, config, SUT config). Every choice, the corpus pick and each
choice in ``mutate``, is one ``_below(draw, n)`` draw from the window's
stream: k = (n - 1).bit_length() bits, read as ceil(k / 8) big-endian
bytes of which the top k are kept, read again while the value is >= n.
A choice among one value reads no byte. The rest of a window the SUT
went down in counts in ``frames_sent`` but is neither drawn, built nor
delivered, since a crashed SUT answers nothing until the next restore.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import cache
from hashlib import blake2b
from itertools import chain, count
from typing import Protocol

from .frames import MAX_DATA_LEN, Frame

MUTATION_OPS = ("bit_flip", "byte_random", "extend", "length_field_corrupt", "truncate")
PRNG_NAME = "blake2b-512/seed:start:block/per-window"


class FuzzError(ValueError):
    """Bad campaign configuration."""


class FuzzTransport(Protocol):
    """Delivery, monitoring, and state-restore surface the engine drives.

    ``send`` delivers one frame and returns the number of response
    frames it drew; ``alive`` issues one liveness probe; ``restore`` puts
    the SUT back into its pre-campaign state. ``down`` is True exactly
    when the SUT will answer nothing, probes included, until the next
    ``restore``: an SUT that answered the probe before the first frame
    misses a later probe only when it is down. The engine ends a probe
    window at the frame that put the SUT down, and that frame is the
    trigger.
    """

    def send(self, frame: Frame) -> int: ...

    def down(self) -> bool: ...

    def alive(self) -> bool: ...

    def restore(self) -> None: ...


@dataclass(frozen=True)
class FuzzConfig:
    """A campaign: PRNG seed, frame budget, seed corpus, mutation operators and
    the number of frames between liveness probes."""

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
    """A frame after which the SUT stopped answering: the trigger, the corpus
    frame it came from, its position, the evidence, whether it killed the
    SUT again alone, and its minimized form."""

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


def _window_bytes(seed: int, start: int) -> Iterator[int]:
    """The byte stream of the probe window that starts at frame ``start``."""
    return chain.from_iterable(
        blake2b(f"{seed}:{start}:{block}".encode()).digest() for block in count()
    )


# The right shift that keeps the top (n - 1).bit_length() bits of a byte, for 1 <= n <= 256.
_SHIFT = tuple(8 - (n - 1).bit_length() for n in range(257))


def _below(draw: Callable[[], int], n: int) -> int:
    """A uniform draw from ``range(n)``, ``n >= 1``, from the byte stream
    ``draw`` (each call returns the next byte).

    With k = ``(n - 1).bit_length()``, it reads ceil(k / 8) bytes as one
    big-endian number and keeps its top k bits, and reads again while the
    value is ``>= n``. So ``n == 1`` reads no byte and gives 0, and
    ``n == 256`` reads exactly one byte.
    """
    if n <= 256:
        if n == 1:
            return 0
        shift = _SHIFT[n]
        r = draw() >> shift
        while r >= n:
            r = draw() >> shift
        return r
    k = (n - 1).bit_length()
    size = (k + 7) // 8
    shift = 8 * size - k
    while True:
        r = int.from_bytes(bytes([draw() for _ in range(size)]), "big") >> shift
        if r < n:
            return r


def mutate(frame: Frame, draw: Callable[[], int], ops: frozenset[str]) -> Frame:
    """Apply exactly one mutation, chosen by bytes from ``draw``, to the frame data.

    ``draw`` returns the next byte of a stream. Each choice is one
    ``_below`` draw from it (the top bits of as many bytes as the choice
    needs, read again when out of range), made in the order of the code
    below; a new byte value is one whole byte, which is
    ``_below(draw, 256)``. Changing the choices or their order changes
    every later frame of the probe window.
    """
    if not ops:
        return frame
    data = frame.data
    n = len(data)
    order = _op_order(ops)
    op = order[_below(draw, len(order))]
    if op == "bit_flip":
        if not n:
            return frame
        ix = _below(draw, n)
        flipped = data[ix] ^ 1 << _below(draw, 8)
        data = data[:ix] + bytes((flipped,)) + data[ix + 1 :]
    elif op == "byte_random":
        if not n:
            return frame
        value = draw()  # drawn before the index
        ix = _below(draw, n)
        data = data[:ix] + bytes((value,)) + data[ix + 1 :]
    elif op == "length_field_corrupt":
        if not n:
            return frame
        data = bytes((n + _below(draw, 256 - n),)) + data[1:]  # a length byte in [n, 255]
    elif op == "truncate":
        data = data[: _below(draw, max(1, n))]  # keeps 0 to max(0, n - 1) bytes
    elif op == "extend":
        room = MAX_DATA_LEN - n
        if room <= 0:
            return frame
        grow = 1 + _below(draw, room)  # 1 to room bytes, then each byte's value
        data += bytes([draw() for _ in range(grow)])
    return Frame(frame.id, data)


# -- campaign --------------------------------------------------------------


@dataclass
class CampaignResult:
    """A campaign's findings in order, and its counts in ``stats``."""

    findings: list[FuzzFinding]
    stats: dict = field(default_factory=dict)


def _kills(transport: FuzzTransport, frame: Frame) -> bool:
    """True when ``frame`` alone, sent after a restore, leaves the SUT silent."""
    transport.restore()
    transport.send(frame)
    return not transport.alive()


def run_campaign(config: FuzzConfig, transport: FuzzTransport) -> CampaignResult:
    """Send ``budget`` frames, probing liveness every ``probe_every``.

    The SUT must answer a probe before the first frame, or no missed probe
    could name a trigger: a ``FuzzError`` says so. Stats count campaign
    traffic only; that first probe and the reproduction replays are
    bookkeeping and stay out of the numbers. A frame of a window the
    transport went down in is counted in ``frames_sent`` but not drawn or
    delivered; the next window draws from its own stream, so it is the
    same whatever this one delivered. A finding is reported only if its
    trigger frame alone kills a freshly restored SUT, deduplicated by
    trigger bytes.
    """
    if not transport.alive():
        raise FuzzError("the SUT does not answer the liveness probe before the first frame")
    send, down = transport.send, transport.down
    corpus = config.corpus
    n_corpus = len(corpus)
    budget, probe_every, ops = config.budget, config.probe_every, config.mutation_ops
    findings: list[FuzzFinding] = []
    seen_triggers: set[tuple[int, bytes]] = set()
    probes = responses = 0

    for start in range(0, budget, probe_every):
        draw = _window_bytes(config.seed, start).__next__
        end = min(start + probe_every, budget)
        for sent in range(start, end):
            if sent % 5 == 0:
                source = frame = corpus[(sent // 5) % n_corpus]
            else:
                source = corpus[_below(draw, n_corpus)]
                frame = mutate(source, draw, ops)
            responses += send(frame)
            if down():
                break  # only a restore revives the SUT

        probes += 1
        if transport.alive():
            continue
        # Missed, so the SUT is down, and it went down at the last frame
        # delivered.
        key = (frame.id, frame.data)
        if key not in seen_triggers and _kills(transport, frame):
            seen_triggers.add(key)
            findings.append(
                FuzzFinding(
                    trigger_input=frame,
                    source_input=source,
                    position=sent,
                    verdict_evidence={
                        "missed_probe_after_frame": end,
                        "window_start": start,
                    },
                    reproduced=True,
                )
            )
        transport.restore()

    stats = {"frames_sent": budget, "probes": probes, "responses": responses}
    return CampaignResult(findings=findings, stats=stats)


# -- minimization ----------------------------------------------------------


def minimize(finding: FuzzFinding, transport: FuzzTransport) -> FuzzFinding:
    """1-minimal reduction of the trigger, verified by replay.

    Two passes repeat to a fixed point: drop any single byte, and
    restore any single byte toward the corpus source. A finding whose
    trigger no longer reproduces comes back flagged, untouched.
    """
    if not _kills(transport, finding.trigger_input):
        return replace(finding, reproduced=False)

    current = finding.trigger_input
    changed = True
    while changed:
        changed = False
        for ix in range(len(current.data)):
            candidate = Frame(current.id, current.data[:ix] + current.data[ix + 1 :])
            if _kills(transport, candidate):
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
            if _kills(transport, candidate):
                current = candidate
                changed = True
                break
    transport.restore()
    return replace(finding, minimized_input=current)
