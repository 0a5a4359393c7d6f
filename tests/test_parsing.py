import json
import os
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeline_fixtures as pf
from batchcot import parsing
from batchcot.client import EndpointConfig, MockBackend
from batchcot.parsing import (
    WHITESPACE,
    ChainOrigin,
    CompletionRecord,
    UnsplittableError,
    count_tokens,
    extract_boxed,
    parse_final_answers,
    read_chains,
    split_batch_chains,
    split_completions,
    vanilla_chain,
    write_chains,
)
from batchcot.prompts import BATCH, VANILLA, PromptEnvelope, load_questions


def batch_record(raw_text, k=2, ids=None):
    ids = ids or tuple(f"q{i}" for i in range(k))
    env = PromptEnvelope(text="p", mode=BATCH, batch_size=k, question_ids=ids)
    return CompletionRecord(envelope=env, raw_text=raw_text,
                            counted_tokens=count_tokens(raw_text))


def vanilla_record(raw_text, qid="q0"):
    env = PromptEnvelope(text="p", mode=VANILLA, batch_size=1, question_ids=(qid,))
    return CompletionRecord(envelope=env, raw_text=raw_text,
                            counted_tokens=count_tokens(raw_text))


class TestExtractBoxed:
    def test_single(self):
        assert extract_boxed("so \\boxed{42}.") == ["42"]

    def test_nested_braces(self):
        assert extract_boxed("\\boxed{\\frac{1}{2}} then \\boxed{7}") == \
            ["\\frac{1}{2}", "7"]

    def test_unterminated_skipped(self):
        assert extract_boxed("\\boxed{unclosed") == []

    def test_no_match(self):
        assert extract_boxed("nothing here") == []

    def test_space_before_brace(self):
        assert extract_boxed("\\boxed {5}") == ["5"]

    def test_unterminated_then_inner(self):
        assert extract_boxed("\\boxed{a \\boxed{b}") == ["b"]


# payloads with balanced braces and no backslash (so no spurious \boxed)
_payload_atom = st.text(alphabet="abc 01+-/=^_", min_size=0, max_size=6)


@st.composite
def balanced_payload(draw, depth=0):
    parts = [draw(_payload_atom)]
    if depth < 3:
        for _ in range(draw(st.integers(0, 2))):
            parts.append("{" + draw(balanced_payload(depth + 1)) + "}")
            parts.append(draw(_payload_atom))
    return "".join(parts)


class TestExtractBoxedProperty:
    @given(st.lists(balanced_payload(), min_size=0, max_size=5),
           st.lists(_payload_atom.filter(lambda s: "{" not in s and "}" not in s),
                    min_size=6, max_size=6))
    def test_roundtrip(self, payloads, fillers):
        text = fillers[0]
        for i, payload in enumerate(payloads):
            text += "\\boxed{" + payload + "}" + fillers[i + 1]
        assert extract_boxed(text) == payloads


def reference_boxed_content_at(text, start):
    """parsing._boxed_content_at as a character loop only, without the find fast path."""
    i = start + len("\\boxed")
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    if i >= n or text[i] != "{":
        return None
    depth = 1
    i += 1
    begin = i
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


class TestBoxedContentOracle:
    """The find fast path gives the character loop's result at every \\boxed."""

    # nested, unbalanced and whitespace-led braces, with Unicode whitespace
    # that str.isspace takes and a bare backslash that starts no \boxed
    PIECES = ["\\boxed", "\\boxed{", "{", "}", "}}", "{{", " ", "\t", "\n", "\u2003",
              "\x1c", "a", "7", "\\", "\\frac{1}{2}"]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=24))
    def test_same_group_as_the_character_loop(self, pieces):
        text = "".join(pieces)
        for start in [m.start() for m in re.finditer(re.escape("\\boxed"), text)]:
            assert (parsing._boxed_content_at(text, start)
                    == reference_boxed_content_at(text, start)), (text, start)

    def test_cases_either_side_of_the_fast_path(self):
        for text, expected in (
            ("\\boxed{42}", ("42", 10)),
            ("\\boxed \u2003{a}b", ("a", 11)),
            ("\\boxed{}", ("", 8)),
            ("\\boxed{\\frac{1}{2}}", ("\\frac{1}{2}", 19)),
            ("\\boxed{a{b}", None),
            ("\\boxed{a", None),
            ("\\boxed}", None),
            ("\\boxed", None),
        ):
            assert parsing._boxed_content_at(text, 0) == expected, text
            assert reference_boxed_content_at(text, 0) == expected, text


class TestParseFinalAnswers:
    def test_basic(self):
        rec = batch_record("work...\n[Final Answer]\n1. \\boxed{3}\n2. \\boxed{9}")
        assert parse_final_answers(rec) == {1: "3", 2: "9"}

    def test_last_block_wins(self):
        text = ("[Final Answer]\n1. \\boxed{0}\n2. \\boxed{0}\n"
                "more thoughts\n"
                "[Final Answer]\n1. \\boxed{3}\n2. \\boxed{9}")
        rec = batch_record(text)
        assert parse_final_answers(rec) == {1: "3", 2: "9"}

    def test_no_marker_no_entries(self):
        rec = batch_record("a \\boxed{7} b \\boxed{1} c \\boxed{2}", k=2)
        assert parse_final_answers(rec) == {}

    def test_fewer_boxes_than_k_without_block_guess_nothing(self):
        # Boxes only in segments 1 and 3: taking the last k boxes would shift
        # question 3's answer onto question 2.
        text = ("[Solution Process]\n1. first, so \\boxed{11}\n"
                "2. second, no box\n3. third, so \\boxed{33}")
        rec = batch_record(text, k=3)
        assert parse_final_answers(rec) == {}
        assert [c.predicted_answer for c in split_batch_chains(rec)] == ["11", None, "33"]

    def test_marker_decoration_tolerated(self):
        rec = batch_record("**[final answer]**\n1. \\boxed{5}\n2. \\boxed{6}")
        assert parse_final_answers(rec) == {1: "5", 2: "6"}

    def test_positions_strictly_increasing_within_k(self):
        text = "[Final Answer]\n2. \\boxed{9}\n1. \\boxed{3}\n5. \\boxed{8}"
        rec = batch_record(text, k=3)
        positions = list(parse_final_answers(rec))
        assert positions == sorted(set(positions))
        assert all(1 <= p <= 3 for p in positions)

    def test_fewer_entries_than_k(self):
        rec = batch_record("[Final Answer]\n1. \\boxed{3}", k=3)
        assert parse_final_answers(rec) == {1: "3"}

    def test_requires_batch_mode(self):
        with pytest.raises(ValueError):
            parse_final_answers(vanilla_record("\\boxed{1}"))


FIXTURE_2 = (
    "[Solution Process]\n"
    "1. first we compute carefully and find four.\n"
    "2. then we double three to get six.\n"
    "[Final Answer]\n"
    "1. \\boxed{4}\n"
    "2. \\boxed{6}\n"
)


class TestSplitBatchChains:
    def test_two_chains_with_answers(self):
        rec = batch_record(FIXTURE_2, k=2)
        chains = split_batch_chains(rec)
        assert [c.predicted_answer for c in chains] == ["4", "6"]
        assert [c.origin.position for c in chains] == [1, 2]
        assert all(c.origin.size == 2 and c.origin.kind == BATCH for c in chains)

    def test_partition_identity(self):
        rec = batch_record(FIXTURE_2, k=2)
        chains = split_batch_chains(rec)
        sol_end = rec.raw_text.index("[Solution Process]") + len("[Solution Process]")
        region = rec.raw_text[sol_end:rec.raw_text.index("[Final Answer]")]
        assert "".join(c.text for c in chains) == region

    def test_segments_are_substrings(self):
        rec = batch_record(FIXTURE_2, k=2)
        for chain in split_batch_chains(rec):
            assert chain.text in rec.raw_text

    def test_missing_heading_unsplittable(self):
        text = ("[Solution Process]\n1. only one heading here\n"
                "[Final Answer]\n1. \\boxed{1}\n2. \\boxed{2}\n3. \\boxed{3}\n")
        with pytest.raises(UnsplittableError):
            split_batch_chains(batch_record(text, k=3))

    def test_problem_prefix_headings(self):
        text = ("[Solution Process]\n"
                "Problem 1: reason a\n"
                "Problem 2: reason b\n"
                "[Final Answer]\n1. \\boxed{1}\n2. \\boxed{2}\n")
        chains = split_batch_chains(batch_record(text, k=2))
        assert len(chains) == 2
        assert "reason b" in chains[1].text

    def test_answer_falls_back_to_segment_boxed(self):
        text = ("[Solution Process]\n"
                "1. reasoning gives \\boxed{11}\n"
                "2. reasoning gives \\boxed{22}\n"
                "[Final Answer]\n1. \\boxed{11}\n")
        chains = split_batch_chains(batch_record(text, k=2))
        assert chains[0].predicted_answer == "11"
        assert chains[1].predicted_answer == "22"

    def test_blockless_answers_come_from_each_segment(self):
        # with no block, question 1 keeps its own box, not the whole text's
        # second-to-last one
        text = "1. final \\boxed{3}\n2. intermediate \\boxed{9}, so final \\boxed{4}"
        chains = split_batch_chains(batch_record(text))
        assert [c.predicted_answer for c in chains] == ["3", "4"]

    def test_requires_batch_mode(self):
        with pytest.raises(ValueError):
            split_batch_chains(vanilla_record("text"))


_FINAL_BLOCK_MARKERS = ["[Final Answer]", "[Final Answers]", "**[Final Answers]**",
                        "[final answer]"]


@st.composite
def _answered_batch(draw):
    """(k, text, expected answers): headings 1..k over segments of 0..3 boxes,
    then no block or one block with some of the k entries.

    Every box value is unique (segment i's boxes are s<i>b<j>, block entry
    i is f<i>), so an answer equal to the expected one came from the right
    place and never from another segment's box.
    """
    k = draw(st.integers(2, 16))
    parts = [draw(st.sampled_from(["", "[Solution Process]\n"]))]
    last_boxes = []
    for i in range(1, k + 1):
        words = ["work"] + [f"so \\boxed{{s{i}b{j}}}" for j in range(draw(st.integers(0, 3)))]
        parts.append(f"{i}. " + draw(st.sampled_from([" ", "\n"])).join(words) + "\n")
        last_boxes.append(f"s{i}b{len(words) - 2}" if len(words) > 1 else None)
    block = {}
    if draw(st.booleans()):
        block = {i: f"f{i}" for i in sorted(draw(st.sets(st.integers(1, k))))}
        parts.append(draw(st.sampled_from(_FINAL_BLOCK_MARKERS)))
        parts += [f"\n{i}. \\boxed{{{answer}}}" for i, answer in block.items()]
    expected = [block.get(i, box) for i, box in enumerate(last_boxes, 1)]
    return k, "".join(parts), expected


class TestAnswerRule:
    """Chain i's answer is its block entry, else its own segment's last box,
    else None."""

    @settings(max_examples=200, deadline=None)
    @given(_answered_batch())
    def test_block_entry_else_own_last_box(self, case):
        k, text, expected = case
        chains = split_batch_chains(batch_record(text, k=k))
        assert [c.predicted_answer for c in chains] == expected


class TestOpenSplitterDefects:
    """The splitter's known defect, as the behaviour it should have.

    The test fails today (strict xfail); the fix removes its marker. The
    splitter must either give chain i exactly question i's span and answer,
    or refuse the response as unsplittable.
    """

    @pytest.mark.xfail(strict=True, reason=(
        "silent mis-split: the restarted numbering gives the chains "
        "'\\n1. First:\\n1. add\\n' and "
        "'2. multiply \\\\boxed{3}\\n2. Second \\\\boxed{4}\\n'"))
    def test_nested_numbering_is_split_exactly_or_refused(self):
        text = ("[Solution Process]\n1. First:\n1. add\n2. multiply \\boxed{3}\n"
                "2. Second \\boxed{4}\n[Final Answers]\n1. \\boxed{3}\n2. \\boxed{4}\n")
        try:
            chains = split_batch_chains(batch_record(text))
        except UnsplittableError:
            return
        assert [c.text for c in chains] == ["\n1. First:\n1. add\n2. multiply \\boxed{3}\n",
                                            "2. Second \\boxed{4}\n"]


def _two_problem_text(solution_marker, final_marker):
    return (f"{solution_marker}\n1. a\n2. b\n{final_marker}\n"
            "1. \\boxed{1}\n2. \\boxed{2}\n")


class TestMarkerBoundaries:
    """Where chains end and start around markers decorated with emphasis and blanks."""

    @pytest.mark.parametrize("final_marker, last_chain", [
        ("**[Final Answer]**", "2. b\n"),
        ("  __[final answers]__", "2. b\n  "),
        ("  [final answers]", "2. b\n"),
        ("***[Final Answer]", "2. b\n*"),
        ("\t[Final Answer]", "2. b\n"),
        ("*\t [ FINAL \t ANSWER ] **", "2. b\n"),
        ("_*[Final Answer]", "2. b\n_"),
    ])
    def test_last_chain_ends_before_final_marker(self, final_marker, last_chain):
        text = _two_problem_text("[Solution Process]", final_marker)
        chains = split_batch_chains(batch_record(text))
        assert [c.text for c in chains] == ["\n1. a\n", last_chain]
        assert [c.predicted_answer for c in chains] == ["1", "2"]

    @pytest.mark.parametrize("solution_marker", [
        "[Solution Process]**", "**[solution process]**", "  [Solution Process] \t__",
    ])
    def test_first_chain_starts_after_solution_marker(self, solution_marker):
        text = _two_problem_text(solution_marker, "[Final Answer]")
        chains = split_batch_chains(batch_record(text))
        assert [c.text for c in chains] == ["\n1. a\n", "2. b\n"]

    def test_marker_spans(self):
        text = "x **[Final Answer]***[final answer] y"
        assert parsing._marker_spans(parsing._FINAL_RE, text) == [(2, 20), (20, 36)]


# The emphasis-led marker patterns and the line-start heading pattern the
# splitter used before markers were found by their `[` and headings by their
# newline; they define where every marker, heading and chain starts and ends.
_ORACLE_FINAL_RE = re.compile(
    r"(?:\*{1,2}|_{1,2})?[ \t]*\[[ \t]*final[ \t]+answers?[ \t]*\][ \t]*(?:\*{1,2}|_{1,2})?",
    re.IGNORECASE,
)
_ORACLE_SOLUTION_RE = re.compile(
    r"(?:\*{1,2}|_{1,2})?[ \t]*\[[ \t]*solution[ \t]+process[ \t]*\][ \t]*(?:\*{1,2}|_{1,2})?",
    re.IGNORECASE,
)
_ORACLE_HEADING_RE = re.compile(
    r"^[ \t]*(?:\*{1,2}|#{1,6}[ \t]*)?(?:problem|question)?[ \t]*(\d+)[ \t]*[.):]",
    re.IGNORECASE | re.MULTILINE,
)


def _oracle_final_answers(text, k):
    matches = list(_ORACLE_FINAL_RE.finditer(text))
    if not matches:
        return {}
    tail = text[matches[-1].end():]
    entries = {}
    last = 0
    for m in parsing._ENTRY_RE.finditer(tail):
        pos = int(m.group(1))
        parsed = parsing._boxed_content_at(tail, m.end())
        if parsed is not None and last < pos <= k:
            entries[pos] = parsed[0]
            last = pos
    return entries


def _oracle_chains(text, k):
    """[(text, predicted_answer), ...] per question, or None when unsplittable."""
    sol = _ORACLE_SOLUTION_RE.search(text)
    finals = list(_ORACLE_FINAL_RE.finditer(text))
    region_start = sol.end() if sol else 0
    region_end = finals[-1].start() if finals else len(text)
    if region_end < region_start:
        region_end = len(text)
    region = text[region_start:region_end]
    marks = []
    for m in _ORACLE_HEADING_RE.finditer(region):
        if len(marks) < k and int(m.group(1)) == len(marks) + 1:
            marks.append(m.start())
    if len(marks) != k:
        return None
    boundaries = [0] + marks[1:] + [len(region)]
    answers = _oracle_final_answers(text, k)
    chains = []
    for pos in range(1, k + 1):
        segment = region[boundaries[pos - 1]:boundaries[pos]]
        inner = extract_boxed(segment)
        chains.append((segment, answers.get(pos, inner[-1] if inner else None)))
    return chains


_SOLUTION_MARKERS = ["[Solution Process]", "[solution  process]", "[ SOLUTION\tPROCESS ]"]
_FINAL_MARKERS = ["[Final Answer]", "[final answers]", "[ FINAL \t ANSWER ]"]
_FILLERS = ["*", "_", " ", "\n", "#", "x", "7", "1.", "2)", "12.", "[Final",
            "[Solution", "\\boxed{4}", "1. \\boxed{5}", "\\boxed{"]
_decoration = st.text(alphabet="*_ \t\n", max_size=4)


def _decorated(markers):
    return st.builds(lambda before, marker, after: before + marker + after,
                     _decoration, st.sampled_from(markers), _decoration)


def _heading(number):
    return st.builds(
        lambda newline, lead, word, delimiter: f"{newline}{lead}{word}{number}{delimiter}",
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.sampled_from(["", " ", "\t", "*", "**", "***", "# ", "####### "]),
        st.sampled_from(["", "Problem ", "QUESTION ", "problem", "Step "]),
        st.sampled_from([".", ")", ":", " .", ","]),
    )


_markup = st.one_of(
    _decorated(_SOLUTION_MARKERS), _decorated(_FINAL_MARKERS),
    st.integers(1, 3).flatmap(_heading), st.sampled_from(_FILLERS),
)


@st.composite
def _batch_like(draw):
    """A solution marker, headings 1..3 (some dropped) each with noise, then
    a final marker and numbered boxed entries, all among decoration."""
    parts = draw(st.lists(_markup, max_size=3))
    parts.append(draw(_decorated(_SOLUTION_MARKERS)))
    for number in (1, 2, 3):
        if draw(st.integers(0, 5)):
            parts.append(draw(_heading(number)))
        parts += draw(st.lists(_markup, max_size=3))
    parts.append(draw(_decorated(_FINAL_MARKERS)))
    for number in draw(st.lists(st.integers(1, 3), max_size=3)):
        parts.append(f"\n{number}. \\boxed{{{number}}}")
    parts += draw(st.lists(_markup, max_size=3))
    return "".join(parts)


class TestMarkerOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.lists(_markup, max_size=30).map("".join), _batch_like()),
           st.integers(2, 3))
    def test_matches_emphasis_led_markers(self, text, k):
        for pattern, oracle in ((parsing._FINAL_RE, _ORACLE_FINAL_RE),
                                (parsing._SOLUTION_RE, _ORACLE_SOLUTION_RE)):
            assert parsing._marker_spans(pattern, text) == \
                [m.span() for m in oracle.finditer(text)]
        rec = batch_record(text, k=k)
        assert parse_final_answers(rec) == _oracle_final_answers(text, k)
        expected = _oracle_chains(text, k)
        if expected is None:
            with pytest.raises(UnsplittableError):
                split_batch_chains(rec)
        else:
            assert [(c.text, c.predicted_answer) for c in split_batch_chains(rec)] \
                == expected


class TestVanillaChain:
    def test_last_boxed_wins(self):
        rec = vanilla_record("try \\boxed{1}; actually \\boxed{2}")
        chain = vanilla_chain(rec)
        assert chain.predicted_answer == "2"
        assert chain.origin.kind == VANILLA
        assert chain.text == rec.raw_text

    def test_no_boxed(self):
        assert vanilla_chain(vanilla_record("no answer")).predicted_answer is None


class TestCountTokens:
    def test_whitespace(self):
        assert count_tokens("a b  c") == 3

    def test_empty(self):
        assert count_tokens("") == 0

    SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]

    def test_every_whitespace_code_point_splits(self):
        assert {" ", "\x1c", "\x1f", "\x85", "\u3000"} <= set(self.SPACES)
        for space in self.SPACES:
            for text in (f"a{space}b", f"{space}a{space}{space}b{space}", space):
                assert count_tokens(text) == len(text.split()), repr(text)

    def test_every_other_ascii_byte_is_part_of_a_word(self):
        for c in map(chr, range(128)):
            if not c.isspace():
                assert count_tokens(f"{c} a{c}b {c}{c}") == 3, repr(c)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from(SPACES), st.characters(),
                                      st.characters(max_codepoint=127)))
           | st.text(alphabet=st.sampled_from([c for c in SPACES if c.isascii()]
                                              + ["a", "\x00", "\x7f", "-"])))
    def test_is_len_of_split(self, text):
        assert count_tokens(text) == len(text.split())


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


class TestChainTokenCounts:
    """Every chain carries count_tokens(text) from the moment it is split."""

    @staticmethod
    def split_all(backend, questions, batch_sizes, seed, group):
        chains = []
        for k in batch_sizes:
            records, failures = pf.send_groups(questions, k, EndpointConfig(),
                                               backend, seed, group)
            assert failures == []
            chains += split_completions(records)[0]
        return chains

    def test_clean_fixture_chains(self):
        questions = pf.make_corpus()
        chains = self.split_all(pf.build_script(questions), questions, (1, 2, 3),
                                0, "sequential")
        assert len(chains) == 3 * pf.N_QUESTIONS
        assert [c.token_count for c in chains] == [count_tokens(c.text) for c in chains]

    def test_hostile_benchmark_chains(self, tmp_path, monkeypatch):
        # the benchmark's generated responses, a fixed share of them hostile
        monkeypatch.syspath_prepend(PERFBENCH)
        import gen_inputs
        try:
            truth = gen_inputs.make_pipeline_inputs(str(tmp_path), seed=3, n_questions=40)
        finally:
            sys.modules.pop("gen_inputs", None)
        assert set(gen_inputs.HOSTILE_KINDS) <= {r["kind"] for r in truth["records"]}
        questions = load_questions(str(tmp_path / "questions.jsonl"))
        backend = MockBackend.from_dir(str(tmp_path / "mock"))
        chains = self.split_all(backend, questions, truth["batch_sizes"], 3, "random")
        assert {c.origin.size for c in chains} == {1, 4, 8}
        assert [c.token_count for c in chains] == [count_tokens(c.text) for c in chains]

    def test_unicode_whitespace_and_empty_segments(self):
        text = ("[Solution Process]\n1.\u00a0a\u2003b\r\nc\n2.\n"
                "[Final Answer]\n1. \\boxed{1}\n2. \\boxed{2}")
        chains = split_completions([batch_record(text), vanilla_record("x\u3000y z")])[0]
        assert [c.token_count for c in chains] == [4, 1, 3]
        assert [c.token_count for c in chains] == [count_tokens(c.text) for c in chains]


class TestChainSerialization:
    def test_roundtrip(self, tmp_path):
        chain = vanilla_chain(vanilla_record("body \\boxed{3}", qid="qz"))
        chain.verdict = "correct"
        path = tmp_path / "chains.jsonl"
        write_chains(path, [chain])
        d = json.loads(path.read_text())
        assert d["token_scheme"] == WHITESPACE
        assert d["token_count"] == 2
        back, = read_chains(path)
        assert back.question_id == "qz"
        assert back.predicted_answer == "3"
        assert back.verdict == "correct"

    def test_read_count_is_carried_and_missing_count_is_counted(self, tmp_path):
        origin = {"kind": "vanilla", "size": 1, "position": 1}
        path = tmp_path / "chains.jsonl"
        path.write_text(
            json.dumps({"question_id": "a", "text": "one two", "origin": origin,
                        "token_count": 7}) + "\n"
            + json.dumps({"question_id": "b", "text": "x y z", "origin": origin}) + "\n")
        out = tmp_path / "out.jsonl"
        write_chains(out, read_chains(path))
        assert [json.loads(line)["token_count"]
                for line in out.read_text().splitlines()] == [7, 3]

    def test_record_token_preference(self):
        rec = CompletionRecord(
            envelope=PromptEnvelope(text="p", mode=VANILLA, batch_size=1,
                                    question_ids=("a",)),
            raw_text="x y z", counted_tokens=3, reported_tokens=17,
        )
        assert rec.effective_tokens == 17

    def test_origin_position_invariant(self):
        with pytest.raises(ValueError):
            ChainOrigin(kind=BATCH, size=2, position=3)
