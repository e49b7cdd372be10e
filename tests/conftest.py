import contextlib
import signal

import pytest

from ramforge import forge
from ramforge.pgroups import analysis, base, iso, tables
from ramforge.pgroups.analysis import commutator_subgroup_idx, conjugacy_classes_idx
from ramforge.pgroups.base import closure


def index_perm(G, alpha) -> list[int]:
    """The map ``alpha`` on the elements of G as the list of the index of
    alpha(g) for each index g: the form `burnside_action_check` takes."""
    idx = G.index_map()
    return [idx[alpha[g]] for g in G.elements()]


@contextlib.contextmanager
def within(seconds: float, case: str):
    """Fail ``case`` by an alarm if it runs for more than ``seconds``,
    instead of stalling the suite."""

    def hang(signum, frame):
        pytest.fail(f"{case}: still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def table_spy(monkeypatch) -> list:
    """The order of every table built from here on, through any module
    that calls `tables`."""
    built = []
    real = base.tables

    def spy(G):
        if getattr(G, "_tables", None) is None:
            built.append(G.order)
        return real(G)

    for mod in (base, analysis, iso, forge):
        monkeypatch.setattr(mod, "tables", spy)
    return built


def normal_subgroups_avoiding(t, forbidden: frozenset) -> set:
    """Every normal subgroup N of the tables ``t`` with forbidden ⊄ N, by
    walking the normal-subgroup lattice: the trivial subgroup closed under
    joining a conjugacy class, where a join that contains ``forbidden`` is
    not taken (nor anything above it).  The oracle for
    `minimal_nonabelian_quotient`, whose search never walks the lattice."""

    def join(cur: frozenset, cls: frozenset) -> frozenset:
        if cls <= cur:
            return cur
        closed = frozenset(closure(cur, cls, lambda x, g: t.mul[x][g]))
        return cur if forbidden <= closed else closed

    return closure([frozenset({t.e})], conjugacy_classes_idx(t), join)


def largest_kernel_avoiding_derived(G) -> tuple:
    """The largest normal N with [G, G] ⊄ N, least in its sorted indices
    among those of its size, by the lattice walk above."""
    t = tables(G)
    der = frozenset(commutator_subgroup_idx(t))
    candidates = (tuple(sorted(s)) for s in normal_subgroups_avoiding(t, der))
    return min(candidates, key=lambda s: (-len(s), s))
