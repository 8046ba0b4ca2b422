"""Run-Length Encoding (RLE) for biological sequences and bitmaps.

RLE replaces consecutive repeats of a character C by one occurrence of C
followed by its frequency (Golomb 1966, cited as [23] in the paper).  It is
the compression format the SBC-tree (Section 7.2) indexes directly, and is
also used to compress the outdated-cell bitmaps of Section 5.

Protein secondary-structure sequences (runs of H/E/L) compress extremely well
under RLE, which is where the paper's "order of magnitude reduction in
storage" claim comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.errors import IndexError_

#: One run: (character, repeat count).
Run = Tuple[str, int]


def rle_encode(sequence: str) -> List[Run]:
    """Encode ``sequence`` as a list of (character, count) runs."""
    runs: List[Run] = []
    previous = None
    count = 0
    for char in sequence:
        if char == previous:
            count += 1
        else:
            if previous is not None:
                runs.append((previous, count))
            previous = char
            count = 1
    if previous is not None:
        runs.append((previous, count))
    return runs


def rle_decode(runs: Iterable[Run]) -> str:
    """Decode a list of runs back into the original sequence."""
    return "".join(char * count for char, count in runs)


def rle_to_string(runs: Iterable[Run]) -> str:
    """Render runs in the paper's textual form, e.g. ``L3E7H22``."""
    return "".join(f"{char}{count}" for char, count in runs)


def rle_from_string(text: str) -> List[Run]:
    """Parse the textual form produced by :func:`rle_to_string`."""
    runs: List[Run] = []
    i, n = 0, len(text)
    while i < n:
        char = text[i]
        i += 1
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if start == i:
            raise IndexError_(f"malformed RLE string at offset {start}: missing count")
        runs.append((char, int(text[start:i])))
    return runs


def rle_encoded_length(sequence: str) -> int:
    """Number of runs in the RLE encoding of ``sequence``."""
    return len(rle_encode(sequence))


def compression_ratio(sequence: str, bytes_per_run: int = 5) -> float:
    """Uncompressed bytes / compressed bytes for one sequence.

    A run is charged ``bytes_per_run`` bytes (1 byte for the character plus a
    4-byte count by default); the uncompressed form is charged 1 byte per
    character.
    """
    if not sequence:
        return 1.0
    compressed = rle_encoded_length(sequence) * bytes_per_run
    return len(sequence) / compressed if compressed else float("inf")


@dataclass(frozen=True)
class RleSequence:
    """A sequence stored in RLE form, with the accessors indexes need.

    The SBC-tree operates over the compressed form without decompressing it;
    this class provides run-level access plus the mapping between compressed
    positions (run index) and original positions (character offsets).
    """

    runs: Tuple[Run, ...]

    @classmethod
    def from_plain(cls, sequence: str) -> "RleSequence":
        return cls(tuple(rle_encode(sequence)))

    # ------------------------------------------------------------------
    @property
    def num_runs(self) -> int:
        return len(self.runs)

    @property
    def original_length(self) -> int:
        return sum(count for _, count in self.runs)

    def decode(self) -> str:
        return rle_decode(self.runs)

    def char_at(self, position: int) -> str:
        """Character at original offset ``position`` without full decompression."""
        if position < 0:
            raise IndexError_("negative position")
        remaining = position
        for char, count in self.runs:
            if remaining < count:
                return char
            remaining -= count
        raise IndexError_(f"position {position} beyond sequence of length "
                          f"{self.original_length}")

    def run_starts(self) -> List[int]:
        """Original offsets at which each run begins."""
        starts = []
        offset = 0
        for _, count in self.runs:
            starts.append(offset)
            offset += count
        return starts

    def suffix_runs(self, run_index: int) -> Tuple[Run, ...]:
        """The run-level suffix starting at run ``run_index``."""
        return self.runs[run_index:]

    def storage_bytes(self, bytes_per_run: int = 5) -> int:
        return self.num_runs * bytes_per_run

    def __str__(self) -> str:
        return rle_to_string(self.runs)


def rle_encode_bits(bits: Sequence[int]) -> List[Tuple[int, int]]:
    """RLE over a 0/1 bit vector, used to compress outdated-cell bitmaps."""
    runs: List[Tuple[int, int]] = []
    previous = None
    count = 0
    for bit in bits:
        bit = 1 if bit else 0
        if bit == previous:
            count += 1
        else:
            if previous is not None:
                runs.append((previous, count))
            previous = bit
            count = 1
    if previous is not None:
        runs.append((previous, count))
    return runs
