"""Generic beam-search tests."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.beam import Beam, LogNormalized, _log_partitions, expand, run
from tests.models import beam_reference as reference

#: Stage scores: ordinary values, exact ties, zeros of both signs and
#: large negatives whose exponentials underflow.
_SCORES = st.one_of(
    st.floats(-60.0, 20.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, -1.5, -3.0, -700.0, -745.5, -1e6]),
)


class Path(NamedTuple):
    """A test state: the choices taken so far."""

    steps: tuple = ()


def path(*steps):
    return Path(steps)


def make_expander(choices):
    def expander(state):
        return [(lp, state, {"steps": state.steps + (c,)}) for lp, c in choices]

    return expander


class Counted:
    """A state that counts the states built from it by ``_replace``."""

    def __init__(self, name, built):
        self.name = name
        self.built = built

    def _replace(self, name):
        self.built.append(name)
        return Counted(name, self.built)


class TestExpand:
    def test_keeps_top_width(self):
        beams = [Beam(score=0.0, state=path())]
        expander = make_expander([(-1.0, "a"), (-0.5, "b"), (-2.0, "c")])
        result = expand(beams, expander, width=2)
        assert [b.state.steps[-1] for b in result] == ["b", "a"]

    def test_empty_expansion_keeps_state(self):
        beams = [Beam(score=-1.0, state=path("x"))]
        result = expand(beams, lambda s: [], width=3)
        assert result == beams

    def test_scores_accumulate(self):
        beams = [Beam(score=-1.0, state=path())]
        result = expand(beams, make_expander([(-0.5, "a")]), width=1)
        assert result[0].score == -1.5

    def test_builds_only_surviving_states(self):
        """One ``_replace`` per surviving choice, none for a pruned one;
        a kept (unexpanded) state is passed on, not rebuilt."""
        built = []

        def expander(state):
            if state.name == "kept":
                return []
            return [
                (score, state, {"name": f"{state.name}{k}"})
                for k, score in enumerate((-3.0, -0.5, -2.0, -0.1))
            ]

        beams = [
            Beam(score=0.0, state=Counted("p", built)),
            Beam(score=-1.0, state=Counted("kept", built)),
            Beam(score=-1.5, state=Counted("q", built)),
        ]
        result = expand(beams, expander, width=4)
        assert [b.state.name for b in result] == ["p3", "p1", "kept", "q3"]
        assert built == ["p3", "p1", "q3"]
        assert result[2].state is beams[1].state


class TestRun:
    def test_multi_stage_best_path(self):
        stages = [
            make_expander([(-0.1, "a1"), (-1.0, "a2")]),
            make_expander([(-0.2, "b1"), (-0.05, "b2")]),
        ]
        final = run([Beam(score=0.0, state=path())], stages, width=4)
        assert final[0].state == path("a1", "b2")

    def test_width_one_is_greedy(self):
        stages = [
            make_expander([(-0.1, "good"), (-0.2, "trap")]),
            # After 'good' the only continuation is expensive; greedy
            # cannot recover — the hallmark of local decoding.
        ]
        final = run([Beam(score=0.0, state=path())], stages, width=1)
        assert len(final) == 1
        assert final[0].state == path("good")

    def test_initial_beams_pruned(self):
        initial = [Beam(score=-i, state=path(i)) for i in range(10)]
        final = run(initial, [], width=3)
        assert len(final) == 3
        assert final[0].state == path(0)

    def test_step_without_choices_keeps_the_beam(self):
        initial = [Beam(score=-i, state=path(i)) for i in range(3)]
        stages = [lambda s: [], make_expander([(-1.0, "a")]), lambda s: []]
        final = run(initial, stages, width=3)
        assert final == [
            Beam(score=-1.0 - i, state=path(i, "a")) for i in range(3)
        ]


class TestTieOrder:
    def test_equal_scores_keep_insertion_order_through_expand(self):
        beams = [Beam(score=0.0, state=path("p")), Beam(score=0.0, state=path("q"))]
        expander = make_expander([(-1.0, "a"), (-1.0, "b"), (-1.0, "c")])
        result = expand(beams, expander, width=6)
        assert [b.state.steps for b in result] == [
            ("p", "a"), ("p", "b"), ("p", "c"),
            ("q", "a"), ("q", "b"), ("q", "c"),
        ]

    def test_equal_scores_keep_insertion_order_through_run(self):
        initial = [Beam(score=0.0, state=path(name)) for name in "xyz"]
        stages = [make_expander([(-0.5, "a"), (-0.5, "b")]), lambda s: []]
        final = run(initial, stages, width=4)
        assert [b.state.steps for b in final] == [
            ("x", "a"), ("x", "b"), ("y", "a"), ("y", "b"),
        ]

    def test_returns_named_beams(self):
        final = run([Beam(score=0.0, state=path())], [make_expander([(-1.0, "a")])], 2)
        assert isinstance(final[0], Beam)
        assert final[0] == Beam(score=-1.0, state=path("a"))


class _Node(NamedTuple):
    depth: int
    index: int
    marked: bool


class TestLogNormalized:
    def test_marked_list_rescaled_unmarked_kept(self):
        def expander(state):
            choices = [
                (2.0, state, {"steps": state.steps + ("hi",)}),
                (0.0, state, {"steps": state.steps + ("lo",)}),
            ]
            if state == path("marked"):
                return LogNormalized(choices)
            return choices

        beams = [Beam(score=0.0, state=path("marked")), Beam(score=0.0, state=path("raw"))]
        result = {b.state.steps: b.score for b in expand(beams, expander, 4)}
        lse = 2.0 + np.log1p(np.exp(-2.0))
        assert result[("raw", "hi")] == 2.0
        assert result[("raw", "lo")] == 0.0
        assert result[("marked", "hi")] == pytest.approx(2.0 - lse)
        assert result[("marked", "lo")] == pytest.approx(-lse)
        probabilities = np.exp([result[("marked", "hi")], result[("marked", "lo")]])
        assert probabilities.sum() == pytest.approx(1.0)

    def test_empty_marked_list_keeps_state(self):
        beams = [Beam(score=-1.0, state=path("x"))]
        assert expand(beams, lambda s: LogNormalized(), width=3) == beams

    @settings(max_examples=500, deadline=None)
    @given(
        lists=st.lists(
            st.lists(
                st.one_of(st.floats(-8.0, 4.0, allow_nan=False), _SCORES),
                min_size=1,
                max_size=7,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_partitions_equal_per_list_formula(self, lists):
        """One ``np.exp``/``np.log`` over a step's lists gives each list's
        ``peak + np.log(np.exp(s - peak).sum())``, as ``float.hex``."""
        marked = [[(score, None, {}) for score in scores] for scores in lists]
        want = []
        for scores in lists:
            array = np.array(scores)
            peak = array.max()
            want.append(float(peak + np.log(np.exp(array - peak).sum())).hex())
        assert [lse.hex() for lse in _log_partitions(marked)] == want

    @settings(max_examples=300, deadline=None)
    @given(
        parents=st.lists(
            st.one_of(_SCORES, st.none()), min_size=1, max_size=5
        ),
        lists=st.lists(
            st.lists(_SCORES, min_size=1, max_size=7), min_size=5, max_size=5
        ),
        width=st.integers(1, 40),
    )
    def test_step_equals_per_list_formula(self, parents, lists, width):
        """The step-wide rescaling equals ``np.exp(...).sum()`` per list.

        A ``None`` parent and odd choice positions expand to raw
        (unmarked) lists.  Scores are compared as ``float.hex``.
        """

        def stage(normalize):
            def expander(state):
                depth, index, marked = state
                if depth == 2:
                    return []
                choices = [
                    (
                        score,
                        state,
                        {
                            "depth": depth + 1,
                            "index": (index + k) % 5,
                            "marked": k % 2 == 0,
                        },
                    )
                    for k, score in enumerate(lists[index])
                ]
                return normalize(choices) if marked else choices

            return expander

        initial = [
            (
                0.0 if parent is None else parent,
                _Node(0, index, parent is not None),
            )
            for index, parent in enumerate(parents)
        ]
        got = run(
            [Beam(score=s, state=state) for s, state in initial],
            [stage(LogNormalized)] * 3,
            width,
        )
        want = reference.run(
            [reference.Beam(score=s, state=state) for s, state in initial],
            [stage(reference.log_normalize)] * 3,
            width,
        )
        assert [(b.score.hex(), b.state) for b in got] == [
            (float(b.score).hex(), b.state) for b in want
        ]
