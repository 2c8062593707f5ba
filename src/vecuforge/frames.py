"""CAN-like frame type, the line-oriented wire codec and its TCP clients.

One frame per line, lowercase hex: ``<id-3-hex>#<data-hex-pairs>``,
e.g. ``7df#02010d``. Ids are 11 bit, payloads are 0-8 bytes. The
management channel uses the same newline framing for its commands, so
every connection to the SUT goes through ``LineClient``.

Both ports also take a barrier line, ``SYNC <n>``, which the SUT answers
with ``SYNCED <n>`` once it has answered every line sent before it.
``LineClient.exchange``, the one way to read replies, sends each line
followed by its own barrier, so the reply lines before a ``SYNCED`` are
all the replies to the line before the matching ``SYNC``: no exchange
ends on a guessed idle gap, and a late reply is dropped with its barrier.
``DataChannel`` is the one frame exchange on the data port: the
executor's steps and the fingerprint's sweeps both send through it, and
it reads the reply lines as frames.
"""

import re
import socket
import time
from collections import deque
from dataclasses import dataclass

MAX_FRAME_ID = 0x7FF
MAX_DATA_LEN = 8
BARRIER_TIMEOUT = 2.0

_LINE_RE = re.compile(r"^([0-9a-fA-F]{1,3})#((?:[0-9a-fA-F]{2})*)$")
_HEX_RE = re.compile(r"[0-9a-fA-F]+")


class FrameError(ValueError):
    """Raised for malformed frame lines or out-of-range frame fields."""


@dataclass(frozen=True, slots=True, init=False)
class Frame:
    """A single bus frame: 11-bit id plus 0-8 data bytes.

    The constructor checks its arguments once and stores them through the
    slots, so a frame is built in one step; every other dataclass method
    (``eq``, ``hash``, ``repr``, ``replace``, the frozen ``__setattr__``)
    is the generated one.
    """

    id: int
    data: bytes = b""

    def __init__(self, id: int, data: bytes = b"") -> None:
        if not 0 <= id <= MAX_FRAME_ID:
            raise FrameError(f"frame id {id:#x} exceeds 11 bits")
        if len(data) > MAX_DATA_LEN:
            raise FrameError(f"frame data is {len(data)} bytes, max is {MAX_DATA_LEN}")
        _set_id(self, id)
        _set_data(self, data)

    def to_line(self) -> str:
        return f"{self.id:03x}#{self.data.hex()}"


_set_id = Frame.__dict__["id"].__set__
_set_data = Frame.__dict__["data"].__set__


def parse_line(line: str) -> Frame:
    """Parse one wire line into a Frame.

    Raises FrameError on anything that is not a well-formed frame line.
    """
    m = _LINE_RE.match(line.strip())
    if m is None:
        raise FrameError(f"not a frame line: {line!r}")
    return Frame(int(m.group(1), 16), bytes.fromhex(m.group(2)))


def hex_in(text: str | None, top: int) -> int | None:
    """``text`` read as hex when it is bare hex digits, no more of them than
    ``top`` has (as in a frame line), and at most ``top``; else None."""
    if not isinstance(text, str) or len(text) > len(f"{top:x}") or not _HEX_RE.fullmatch(text):
        return None
    value = int(text, 16)
    return value if value <= top else None


# -- line-framed TCP clients ---------------------------------------------


class ExecutorError(RuntimeError):
    """Infrastructure fault: connectivity, configuration or protocol."""


class ConnectionLost(ExecutorError):
    """The SUT closed or reset a connection: nothing more can be sent on it."""


class LineClient:
    """Newline-framed TCP client whose every read ends on a barrier.

    Each received chunk is split into lines once: its whole lines are
    decoded together and queued, and the partial line after its last
    newline waits in ``buf`` for the next chunk.
    """

    def __init__(self, host: str, port: int):
        # ``getaddrinfo`` IDNA-encodes a str host, which imports three codec
        # modules on a process's first connection; an ASCII host needs none.
        address = host.encode("ascii") if host.isascii() else host
        try:
            self.sock = socket.create_connection((address, port), timeout=2.0)
        except OSError as exc:
            raise ExecutorError(
                f"SUT unreachable: cannot connect to {host}:{port}: {exc}"
            ) from None
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.lines: deque[str] = deque()
        self.token = 0

    def exchange(self, lines: list[str]) -> list[list[str]]:
        """Send each of ``lines`` (at least one) followed by its own barrier;
        the replies to each line.

        Every line gets a fresh ``SYNC <token>``, all in one write. Reply
        lines are gathered until the barrier of the last line returns. A
        barrier reply is ``SYNCED`` and a decimal token; any other line,
        such as ``SYNCED ²``, is a reply line. The lines before an older
        barrier belong to an aborted exchange and are dropped. Waiting
        longer than ``BARRIER_TIMEOUT`` for the next barrier raises
        ``ExecutorError``.
        """
        first = self.token + 1
        self.token += len(lines)
        try:
            self.sock.settimeout(2.0)
            self.sock.sendall("".join(f"{line}\nSYNC {first + i}\n"
                                      for i, line in enumerate(lines)).encode())
        except OSError as exc:
            raise ConnectionLost(f"connection lost while sending: {exc}") from None
        replies: list[list[str]] = [[] for _ in lines]
        pending: list[str] = []
        queued = self.lines
        deadline = time.monotonic() + BARRIER_TIMEOUT
        while True:
            if not queued:
                self._receive(deadline)
            line = queued.popleft()
            word, _, arg = line.partition(" ")
            if word != "SYNCED" or not arg.isdecimal():
                pending.append(line)
                continue
            n = int(arg)
            if first <= n <= self.token:
                replies[n - first] = pending
                if n == self.token:
                    return replies
                deadline = time.monotonic() + BARRIER_TIMEOUT
            pending = []

    def _receive(self, deadline: float) -> None:
        """Receive until a whole line is queued; ``ExecutorError`` once ``deadline`` passes."""
        while not self.lines:
            try:
                self.sock.settimeout(max(deadline - time.monotonic(), 0.0))
                chunk = self.sock.recv(65536)
            except (BlockingIOError, socket.timeout):
                raise ExecutorError(f"SUT did not answer the barrier SYNC {self.token} "
                                    f"within {BARRIER_TIMEOUT}s") from None
            except OSError as exc:
                raise ConnectionLost(f"connection lost while reading: {exc}") from None
            if not chunk:
                raise ConnectionLost("peer closed the connection")
            whole, newline, self.buf = (self.buf + chunk).rpartition(b"\n")
            if newline:
                self.lines.extend(whole.decode(errors="replace").split("\n"))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class DataChannel:
    """Frame traffic to the SUT's data port, for every bus."""

    def __init__(self, host: str, port: int):
        self.client = LineClient(host, port)

    def exchange(self, frames: list[Frame]) -> list[list[Frame]]:
        """Send every frame in one pipelined exchange; per frame, the frames the
        SUT answered before its barrier. Reply lines that are not frames are
        dropped."""
        out: list[list[Frame]] = [[] for _ in frames]
        for replies, lines in zip(out, self.client.exchange([f.to_line() for f in frames])):
            for line in lines:
                try:
                    replies.append(parse_line(line))
                except FrameError:
                    pass
        return out

    def collect(self, frame: Frame) -> list[Frame]:
        """Send one frame; the frames the SUT answered before its barrier."""
        return self.exchange([frame])[0]

    def close(self) -> None:
        self.client.close()
