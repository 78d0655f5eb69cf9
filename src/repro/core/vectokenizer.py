"""Offset-array page tokenizer — the vectorized scan path's front end.

:func:`repro.core.tokenizer.tokenize_page` materialises one ``bytes``
object per token — millions of small allocations per scan. This module
produces the same information as flat **offset/length arrays** over the
decompressed page buffer instead: line spans, token spans, the line each
token belongs to, and its position within that line. Nothing is copied
out of the buffer until a token is actually needed as ``bytes`` (a hash
-filter candidate) or a line is actually kept.

Two backends produce identical arrays (``repro.core.backend``):

- **numpy** — boolean delimiter masks over an ``np.frombuffer`` view of
  the page (zero-copy even from a decode-arena ``memoryview``), token
  boundaries from mask edges, line membership from a ``searchsorted``
  against newline positions.
- **fallback** — C-level ``bytes.find``/``split`` bookkeeping that emits
  plain Python lists. Used when numpy is absent; also the cross-check
  the differential suite compares the numpy arrays against.

Line semantics follow ``bytes.splitlines`` exactly. The vector fast
paths assume ``\\n``-terminated text (what the ingest path stores); a
page containing ``\\r`` takes a scalar walk that reproduces the full
``\\r``/``\\n``/``\\r\\n`` terminator set, so equivalence holds on
arbitrary bytes, not just well-formed logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.backend import numpy_or_none, resolve_backend
from repro.core.tokenizer import _DELIM_TRANSLATE

__all__ = ["PageTokens", "tokenize_page_offsets"]

_NL = 0x0A
_CR = 0x0D
_SPACE = 0x20
_TAB = 0x09


@dataclass
class PageTokens:
    """One page's lines and tokens as flat offset arrays.

    All offsets index ``buffer``. ``line_starts[i]:line_ends[i]`` is the
    *raw* line (tabs preserved, no terminator) — slicing it yields
    exactly ``buffer.splitlines()[i]``. ``token_starts[j]:token_ends[j]``
    is one token; ``token_lines[j]`` is its line index and
    ``token_positions[j]`` its position within that line (the value the
    hash filter checks column constraints against).

    Arrays are numpy ``int64``/``uint8``-derived on the numpy backend
    and plain lists on the fallback — consumers index them uniformly.
    """

    buffer: "bytes | memoryview"
    line_starts: Sequence[int]
    line_ends: Sequence[int]
    token_starts: Sequence[int]
    token_ends: Sequence[int]
    token_lines: Sequence[int]
    token_positions: Sequence[int]
    backend: str = "fallback"

    @property
    def num_lines(self) -> int:
        return len(self.line_starts)

    @property
    def num_tokens(self) -> int:
        return len(self.token_starts)

    def line_bytes(self, i: int) -> bytes:
        """Raw bytes of line ``i`` (terminator stripped, tabs intact)."""
        return bytes(self.buffer[int(self.line_starts[i]) : int(self.line_ends[i])])

    def kept_lines(self, keep) -> List[bytes]:
        """Raw bytes of every line whose ``keep`` entry is true, in order.

        ``keep`` is a numpy bool array for a numpy page, a list otherwise
        (the verdict kernel's keep mask).
        """
        if self.backend == "numpy":
            rows = keep.nonzero()[0]
            starts = self.line_starts[rows].tolist()
            ends = self.line_ends[rows].tolist()
        else:
            rows = [i for i, kept in enumerate(keep) if kept]
            starts = [self.line_starts[i] for i in rows]
            ends = [self.line_ends[i] for i in rows]
        buffer = self.buffer
        return [bytes(buffer[s:e]) for s, e in zip(starts, ends)]

    def token_bytes(self, j: int) -> bytes:
        return bytes(
            self.buffer[int(self.token_starts[j]) : int(self.token_ends[j])]
        )

    def to_token_lists(self) -> tuple[List[bytes], List[List[bytes]]]:
        """Re-materialise ``(raw_lines, token_lists)``.

        The exact structure :func:`repro.core.tokenizer.tokenize_page`
        returns — the bridge the differential suite equates the two
        representations over. Not a hot path.
        """
        raw_lines = [self.line_bytes(i) for i in range(self.num_lines)]
        token_lists: List[List[bytes]] = [[] for _ in range(self.num_lines)]
        for j in range(self.num_tokens):
            token_lists[int(self.token_lines[j])].append(self.token_bytes(j))
        return raw_lines, token_lists


def tokenize_page_offsets(
    payload: "bytes | bytearray | memoryview",
    backend: Optional[str] = None,
) -> PageTokens:
    """Tokenize one decompressed page into offset arrays.

    ``payload`` may be a ``memoryview`` into a reusable decode arena —
    the numpy backend reads it zero-copy; the fallback materialises one
    ``bytes`` per page (which it needs for C-level ``find``/``split``
    anyway). The result must be fully consumed before the arena is
    reused for the next page.
    """
    backend = resolve_backend(backend)
    if backend == "numpy":
        tokens = _tokenize_numpy(payload)
        if tokens is not None:
            return tokens
        # a page carrying \r takes the exact-terminator scalar walk; its
        # arrays are plain lists, so it is labelled (and consumed as)
        # fallback regardless of the requested backend
    data = payload if isinstance(payload, bytes) else bytes(payload)
    if b"\r" in data:
        return _tokenize_generic(data, "fallback")
    return _tokenize_fallback(data, "fallback")


# -- numpy backend ---------------------------------------------------------


def _tokenize_numpy(payload) -> Optional[PageTokens]:
    """Mask-based tokenization; ``None`` when the page needs the \\r walk."""
    np = numpy_or_none()
    arr = np.frombuffer(payload, dtype=np.uint8)
    n = arr.size
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return PageTokens(
            buffer=payload,
            line_starts=empty, line_ends=empty,
            token_starts=empty, token_ends=empty,
            token_lines=empty, token_positions=empty,
            backend="numpy",
        )
    if bool((arr == _CR).any()):
        return None

    is_nl = arr == _NL
    nl_pos = np.flatnonzero(is_nl)
    line_starts = np.concatenate((np.zeros(1, dtype=np.int64), nl_pos + 1))
    line_ends = np.concatenate((nl_pos, np.array([n], dtype=np.int64)))
    if line_starts[-1] == n:  # splitlines yields no trailing empty line
        line_starts = line_starts[:-1]
        line_ends = line_ends[:-1]

    tok = ~(is_nl | (arr == _SPACE) | (arr == _TAB))
    if not bool(tok.any()):
        return PageTokens(
            buffer=payload,
            line_starts=line_starts, line_ends=line_ends,
            token_starts=empty, token_ends=empty,
            token_lines=empty, token_positions=empty,
            backend="numpy",
        )
    prev = np.empty_like(tok)
    prev[0] = False
    prev[1:] = tok[:-1]
    nxt = np.empty_like(tok)
    nxt[-1] = False
    nxt[:-1] = tok[1:]
    token_starts = np.flatnonzero(tok & ~prev)
    token_ends = np.flatnonzero(tok & ~nxt) + 1
    # tokens contain no newline byte, so a token's line index is simply
    # how many newlines precede it
    token_lines = np.searchsorted(nl_pos, token_starts, side="left")
    line_change = np.empty(token_lines.shape, dtype=bool)
    line_change[0] = True
    line_change[1:] = token_lines[1:] != token_lines[:-1]
    first_of_line = np.flatnonzero(line_change)
    group = np.cumsum(line_change) - 1
    token_positions = np.arange(token_lines.size, dtype=np.int64) - first_of_line[group]
    return PageTokens(
        buffer=payload,
        line_starts=line_starts, line_ends=line_ends,
        token_starts=token_starts.astype(np.int64, copy=False),
        token_ends=token_ends.astype(np.int64, copy=False),
        token_lines=token_lines.astype(np.int64, copy=False),
        token_positions=token_positions,
        backend="numpy",
    )


# -- fallback backend ------------------------------------------------------


def _append_line_tokens(
    data: bytes,
    start: int,
    end: int,
    line_index: int,
    token_starts: list,
    token_ends: list,
    token_lines: list,
    token_positions: list,
) -> None:
    """Offsets of the tokens in ``data[start:end]`` (one line's body)."""
    body = data[start:end]
    if b"\t" in body:
        body = body.translate(_DELIM_TRANSLATE)
    offset = 0
    position = 0
    for piece in body.split(b" "):
        if piece:
            token_starts.append(start + offset)
            token_ends.append(start + offset + len(piece))
            token_lines.append(line_index)
            token_positions.append(position)
            position += 1
        offset += len(piece) + 1


def _tokenize_fallback(data: bytes, backend: str) -> PageTokens:
    """Offset bookkeeping over ``find``/``split`` (no ``\\r`` in data)."""
    line_starts: list[int] = []
    line_ends: list[int] = []
    token_starts: list[int] = []
    token_ends: list[int] = []
    token_lines: list[int] = []
    token_positions: list[int] = []
    find = data.find
    n = len(data)
    pos = 0
    line_index = 0
    while pos < n:
        nl = find(b"\n", pos)
        end = n if nl == -1 else nl
        line_starts.append(pos)
        line_ends.append(end)
        _append_line_tokens(
            data, pos, end, line_index,
            token_starts, token_ends, token_lines, token_positions,
        )
        line_index += 1
        pos = end + 1
    return PageTokens(
        buffer=data,
        line_starts=line_starts, line_ends=line_ends,
        token_starts=token_starts, token_ends=token_ends,
        token_lines=token_lines, token_positions=token_positions,
        backend=backend,
    )


def _tokenize_generic(data: bytes, backend: str) -> PageTokens:
    """Exact ``bytes.splitlines`` walk for pages containing ``\\r``.

    Rare in real logs; exists so equivalence with the reference path
    holds on *arbitrary* byte strings (the hypothesis suite feeds some).
    """
    line_starts: list[int] = []
    line_ends: list[int] = []
    token_starts: list[int] = []
    token_ends: list[int] = []
    token_lines: list[int] = []
    token_positions: list[int] = []
    n = len(data)
    pos = 0
    line_index = 0
    while pos < n:
        a = data.find(b"\n", pos)
        b = data.find(b"\r", pos)
        if a == -1:
            cut = b
        elif b == -1:
            cut = a
        else:
            cut = a if a < b else b
        end = n if cut == -1 else cut
        line_starts.append(pos)
        line_ends.append(end)
        _append_line_tokens(
            data, pos, end, line_index,
            token_starts, token_ends, token_lines, token_positions,
        )
        line_index += 1
        if cut == -1:
            pos = n
        elif data[cut] == _CR and cut + 1 < n and data[cut + 1] == _NL:
            pos = cut + 2
        else:
            pos = cut + 1
    return PageTokens(
        buffer=data,
        line_starts=line_starts, line_ends=line_ends,
        token_starts=token_starts, token_ends=token_ends,
        token_lines=token_lines, token_positions=token_positions,
        backend=backend,
    )

