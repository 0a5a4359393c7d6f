"""Boxed-answer extraction and per-question splitting of batch completions."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from batchcot.prompts import BATCH, VANILLA, PromptEnvelope
from batchcot.records import read_jsonl, to_dict, write_jsonl

WHITESPACE = "whitespace"

_BOXED = "\\boxed"

# Section markers: case-insensitive bracketed headings, tolerant of surrounding
# whitespace and markdown emphasis. The patterns start at the `[` so that the
# scan can jump between brackets; _marker_spans adds the leading emphasis and
# whitespace back to each match.
_FINAL_RE = re.compile(
    r"\[[ \t]*final[ \t]+answers?[ \t]*\][ \t]*(?:\*{1,2}|_{1,2})?",
    re.IGNORECASE,
)
_SOLUTION_RE = re.compile(
    r"\[[ \t]*solution[ \t]+process[ \t]*\][ \t]*(?:\*{1,2}|_{1,2})?",
    re.IGNORECASE,
)
# Per-problem heading at line start: optional Problem/Question prefix, an
# integer, and a [.):] delimiter. The pattern starts at the newline that ends
# the previous line, so that the scan can jump between newlines; it is run
# over the text with one newline put in front, so the first line counts too.
_HEADING_RE = re.compile(
    r"\n[ \t]*(?:\*{1,2}|#{1,6}[ \t]*)?(?:problem|question)?[ \t]*(\d+)[ \t]*[.):]",
    re.IGNORECASE,
)
_ENTRY_RE = re.compile(r"(\d+)\s*[.):]\s*\$?\s*(?=\\boxed)")


class UnsplittableError(Exception):
    """Batch response could not be partitioned into per-question chains."""


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.6
    max_tokens: int = 32768
    seed: Optional[int] = None


@dataclass(frozen=True)
class CompletionRecord:
    envelope: PromptEnvelope
    raw_text: str
    counted_tokens: int
    reported_tokens: Optional[int] = None
    sampling: SamplingParams = field(default_factory=SamplingParams)
    endpoint: str = "mock"

    def __post_init__(self):
        if self.counted_tokens < 0:
            raise ValueError("counted_tokens must be >= 0")
        if self.reported_tokens is not None and self.reported_tokens < 0:
            raise ValueError("reported_tokens must be >= 0")

    @property
    def effective_tokens(self) -> int:
        """Server-reported usage wins over the local fallback count."""
        return self.reported_tokens if self.reported_tokens is not None else self.counted_tokens


@dataclass(frozen=True)
class ChainOrigin:
    kind: str  # VANILLA or BATCH
    size: int = 1
    position: int = 1

    def __post_init__(self):
        if self.kind not in (VANILLA, BATCH):
            raise ValueError(f"unknown chain origin kind: {self.kind!r}")
        if self.kind == BATCH and not 1 <= self.position <= self.size:
            raise ValueError("batch origin position must lie in 1..size")


@dataclass
class ReasoningChain:
    question_id: str
    text: str
    origin: ChainOrigin
    predicted_answer: Optional[str] = None
    verdict: Optional[str] = None
    # count_tokens(text), counted here when the chain is built without one
    token_count: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if self.token_count is None:
            self.token_count = count_tokens(self.text)
        elif self.token_count < 0:
            raise ValueError("token_count must be >= 0")


# Each byte as b" " where str.split() splits ASCII text (str.isspace: \t to \r,
# \x1c to \x1f and space), else as b"x"; bytes past ASCII are never looked up
_SPACE_OR_WORD = bytes(32 if chr(b).isspace() else 120 for b in range(256))


def count_tokens(text: str) -> int:
    """Whitespace-delimited word count, the WHITESPACE scheme chain rows name.

    This is len(text.split()). ASCII text is counted without the word list:
    each word starts at a b"x" that is first or follows a b" ".
    """
    if text.isascii():
        marks = text.encode("ascii").translate(_SPACE_OR_WORD)
        return marks.count(b" x") + marks.startswith(b"x")
    return len(text.split())


def _boxed_content_at(text: str, start: int):
    """Parse one balanced \\boxed{...} group whose backslash sits at `start`.

    Returns (content, end_index) or None when malformed/unterminated.
    """
    i = start + len(_BOXED)
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    if i >= n or text[i] != "{":
        return None
    begin = i + 1
    close = text.find("}", begin)
    if close < 0:
        return None
    # no "{" before the first "}": that "}" closes the group
    if text.find("{", begin, close) < 0:
        return text[begin:close], close + 1
    depth = 1
    i = begin
    while i < n:
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[begin:i], i + 1
        i += 1
    return None


def extract_boxed(text: str) -> list:
    """All \\boxed{...} payloads in order, with brace matching balanced."""
    out = []
    i = 0
    while True:
        j = text.find(_BOXED, i)
        if j < 0:
            return out
        parsed = _boxed_content_at(text, j)
        if parsed is None:
            i = j + len(_BOXED)
        else:
            content, end = parsed
            out.append(content)
            i = end


def _marker_spans(pattern, text: str) -> list:
    """(start, end) of every marker of `pattern` in `text`, in order.

    A match begins at its `[`. The marker also owns the run of spaces and tabs
    right before it and, before those, up to two copies of one emphasis
    character (`*` or `_`), but nothing up to the end of the previous marker.
    """
    spans = []
    floor = 0
    for m in pattern.finditer(text):
        i = m.start()
        while i > floor and text[i - 1] in " \t":
            i -= 1
        if i > floor and text[i - 1] in "*_":
            i -= 1
            if i > floor and text[i - 1] == text[i]:
                i -= 1
        spans.append((i, m.end()))
        floor = m.end()
    return spans


def _final_answers(text: str, k: int, finals: list) -> dict:
    """{position: answer} after the last of the final-answer marker spans `finals`."""
    if not finals:
        return {}
    tail = text[finals[-1][1]:]
    entries = {}
    last = 0
    for m in _ENTRY_RE.finditer(tail):
        pos = int(m.group(1))
        parsed = _boxed_content_at(tail, m.end())
        if parsed is None:
            continue
        if last < pos <= k:
            entries[pos] = parsed[0]
            last = pos
    return entries


def parse_final_answers(record: CompletionRecord) -> dict:
    """{position: answer} from the last final-answer block of a batch response.

    Positions increase in text order. With no final-answer marker there are
    no entries: no box outside a block is taken by its position.
    """
    if record.envelope.mode != BATCH:
        raise ValueError("parse_final_answers requires a batch completion")
    text = record.raw_text
    return _final_answers(text, record.envelope.batch_size,
                          _marker_spans(_FINAL_RE, text))


def split_batch_chains(record: CompletionRecord) -> list:
    """Partition the solution-process region into one chain per question.

    Chain i's answer is entry i of the last final-answer block, else the last
    box of its own segment, else None. Raises UnsplittableError when the
    numbering-heading scan does not find exactly batch_size headings in
    strictly increasing order 1..k.
    """
    if record.envelope.mode != BATCH:
        raise ValueError("split_batch_chains requires a batch completion")
    k = record.envelope.batch_size
    text = record.raw_text

    sol = _SOLUTION_RE.search(text)
    finals = _marker_spans(_FINAL_RE, text)
    region_start = sol.end() if sol else 0
    region_end = finals[-1][0] if finals else len(text)
    if region_end < region_start:
        region_end = len(text)
    region = text[region_start:region_end]

    marks = []
    expected = 1
    # In "\n" + region a match starts at the offset in region of its line.
    for m in _HEADING_RE.finditer("\n" + region):
        if int(m.group(1)) == expected:
            marks.append(m.start())
            expected += 1
            if expected > k:
                break
    if len(marks) != k:
        raise UnsplittableError(
            f"found {len(marks)} of {k} increasing problem headings"
        )

    boundaries = [0] + marks[1:] + [len(region)]
    answers = _final_answers(text, k, finals)
    chains = []
    for pos in range(1, k + 1):
        segment = region[boundaries[pos - 1]:boundaries[pos]]
        predicted = answers.get(pos)
        if predicted is None:
            inner = extract_boxed(segment)
            predicted = inner[-1] if inner else None
        chains.append(
            ReasoningChain(
                question_id=record.envelope.question_ids[pos - 1],
                text=segment,
                origin=ChainOrigin(kind=BATCH, size=k, position=pos),
                predicted_answer=predicted,
                token_count=count_tokens(segment),
            )
        )
    return chains


def vanilla_chain(record: CompletionRecord) -> ReasoningChain:
    """Whole response of a single-question completion as one chain."""
    if record.envelope.mode != VANILLA:
        raise ValueError("vanilla_chain requires a vanilla completion")
    boxes = extract_boxed(record.raw_text)
    return ReasoningChain(
        question_id=record.envelope.question_ids[0],
        text=record.raw_text,
        origin=ChainOrigin(kind=VANILLA),
        predicted_answer=boxes[-1] if boxes else None,
        # the record's counted_tokens is already the count of raw_text
        token_count=record.counted_tokens,
    )


def split_completions(records):
    """Chains of every completion, and the batch completions that cannot be split.

    Returns (chains, unsplittable_records), both in record order.
    """
    chains = []
    unsplittable = []
    for record in records:
        if record.envelope.mode == VANILLA:
            chains.append(vanilla_chain(record))
        else:
            try:
                chains.extend(split_batch_chains(record))
            except UnsplittableError:
                unsplittable.append(record)
    return chains, unsplittable


# --- JSONL (de)serialization -------------------------------------------------

def _chain_row(chain: ReasoningChain) -> dict:
    """A chain's fields plus its token scheme; verdict once graded."""
    d = to_dict(chain)
    if chain.verdict is None:
        del d["verdict"]
    d["token_scheme"] = WHITESPACE
    return d


def write_chains(path, chains):
    write_jsonl(path, map(_chain_row, chains))


def read_chains(path) -> list:
    return read_jsonl(path, ReasoningChain)


def write_completions(path, records):
    write_jsonl(path, map(to_dict, records))


def read_completions(path) -> list:
    return read_jsonl(path, CompletionRecord)
