"""Unit tests for the backtrackable interval store."""

import pytest

from repro.asp.syntax import Function
from repro.theory.domain import INT_MAX, INT_MIN, IntervalStore


def sym(name):
    return Function(name)


class TestVariables:
    def test_add_and_lookup(self):
        store = IntervalStore()
        x = store.add_var(sym("x"), 0, 10)
        assert store.var(sym("x")) == x
        assert store.name(x) == sym("x")

    def test_add_is_idempotent(self):
        store = IntervalStore()
        assert store.add_var(sym("x")) == store.add_var(sym("x"))

    def test_default_bounds(self):
        store = IntervalStore()
        x = store.add_var(sym("x"))
        assert store.lb(x) == INT_MIN
        assert store.ub(x) == INT_MAX


class TestBounds:
    def test_set_lb_tightens(self):
        store = IntervalStore()
        x = store.add_var(sym("x"), 0, 10)
        assert store.set_lb(x, 3, (7,), level=1)
        assert store.lb(x) == 3
        assert store.lb_reason(x) == (7,)

    def test_weaker_lb_ignored(self):
        store = IntervalStore()
        x = store.add_var(sym("x"), 5, 10)
        assert not store.set_lb(x, 2, (), level=1)
        assert store.lb(x) == 5

    def test_empty_detection(self):
        store = IntervalStore()
        x = store.add_var(sym("x"), 0, 10)
        store.set_lb(x, 8, (), level=1)
        store.set_ub(x, 4, (), level=1)
        assert store.is_empty(x)

    def test_snapshot(self):
        store = IntervalStore()
        store.add_var(sym("x"), 0, 4)
        store.add_var(sym("y"), 1, 2)
        assert store.snapshot() == {sym("x"): (0, 4), sym("y"): (1, 2)}


class TestUndo:
    def test_undo_restores_bounds_and_reasons(self):
        store = IntervalStore()
        x = store.add_var(sym("x"), 0, 10)
        store.set_lb(x, 3, (1,), level=1)
        store.set_lb(x, 5, (2,), level=2)
        store.undo(1)
        assert store.lb(x) == 3
        assert store.lb_reason(x) == (1,)
        store.undo(0)
        assert store.lb(x) == 0
        assert store.lb_reason(x) == ()

    def test_level_zero_updates_permanent(self):
        store = IntervalStore()
        x = store.add_var(sym("x"), 0, 10)
        store.set_ub(x, 7, (), level=0)
        store.undo(0)
        assert store.ub(x) == 7

    def test_undo_interleaved_variables(self):
        store = IntervalStore()
        x = store.add_var(sym("x"), 0, 10)
        y = store.add_var(sym("y"), 0, 10)
        store.set_lb(x, 2, (), level=1)
        store.set_ub(y, 8, (), level=1)
        store.set_lb(y, 4, (), level=2)
        store.undo(1)
        assert store.lb(y) == 0
        assert store.ub(y) == 8
        assert store.lb(x) == 2


class TestLowerBoundReasons:
    """``lb_reason_at_least``: the reason of the earliest bound reaching a value."""

    def raised(self):
        store = IntervalStore()
        x = store.add_var(sym("x"), 0, 20)
        y = store.add_var(sym("y"), 0, 20)
        store.set_lb(x, 2, (9,), level=0)
        store.set_lb(x, 4, (1,), level=1)
        store.set_lb(y, 5, (7,), level=1)
        store.set_lb(x, 7, (2, 3), level=2)
        store.set_ub(x, 15, (8,), level=2)
        store.set_lb(x, 11, (4,), level=3)
        return store, x, y

    def test_each_threshold(self):
        store, x, y = self.raised()
        assert store.lb_reason_at_least(x, 11) == (4,)
        assert [store.lb_reason_at_least(x, v) for v in (8, 9, 10)] == [(4,)] * 3
        assert store.lb_reason_at_least(x, 7) == (2, 3)
        assert store.lb_reason_at_least(x, 5) == (2, 3)
        assert store.lb_reason_at_least(x, 4) == (1,)
        assert store.lb_reason_at_least(x, 3) == (1,)
        assert store.lb_reason_at_least(y, 5) == (7,)

    def test_at_or_below_the_level_zero_bound(self):
        store, x, y = self.raised()
        assert store.lb_reason_at_least(x, 2) == (9,)
        assert store.lb_reason_at_least(x, -5) == (9,)
        assert store.lb_reason_at_least(y, 0) == ()

    def test_above_the_current_bound_rejected(self):
        store, x, _y = self.raised()
        with pytest.raises(ValueError):
            store.lb_reason_at_least(x, 12)

    def test_after_undo(self):
        store, x, _y = self.raised()
        store.undo(2)
        assert store.lb_reason_at_least(x, 7) == (2, 3)
        assert store.lb_reason_at_least(x, 5) == (2, 3)
        assert store.lb_reason_at_least(x, 4) == (1,)
        with pytest.raises(ValueError):
            store.lb_reason_at_least(x, 8)
        store.undo(0)
        assert store.lb_reason_at_least(x, 2) == (9,)
        with pytest.raises(ValueError):
            store.lb_reason_at_least(x, 3)
