"""Subtyping, merging, and unfolding of local types."""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import meet_inside
from universe import (
    build_universe,
    enumerate_closed,
    oracle_conclusive,
    subtype_bounded,
    trees_equal_bounded,
)
import mpst
from mpst import INT, Label, Role, STRING, UNIT
from mpst.errors import ErrorKind, ProtocolTypeError
from mpst.types import (
    Branch,
    END_T,
    RecT,
    Select,
    VarT,
    merge,
    subtype,
    type_equiv,
    unfold_type,
)

P, Q = Role("p"), Role("q")
S_ROLE, C_ROLE, A_ROLE = Role("s"), Role("c"), Role("a")
OK, CANCEL = Label("ok", UNIT), Label("cancel", UNIT)


def b(peer, *pairs):
    return Branch(peer, tuple(pairs))


def sel(peer, *pairs):
    return Select(peer, tuple(pairs))


class TestSubtype:
    def test_end(self):
        assert subtype(END_T, END_T)

    def test_branch_widens_right(self):
        small = b(S_ROLE, (OK, END_T))
        wide = b(S_ROLE, (OK, END_T), (CANCEL, END_T))
        assert subtype(small, wide)
        assert not subtype(wide, small)

    def test_select_labels_fixed(self):
        small = sel(C_ROLE, (OK, END_T))
        wide = sel(C_ROLE, (OK, END_T), (CANCEL, END_T))
        assert not subtype(small, wide)
        assert not subtype(wide, small)
        assert subtype(small, small)

    def test_peer_mismatch(self):
        assert not subtype(b(S_ROLE, (OK, END_T)), b(A_ROLE, (OK, END_T)))
        assert not subtype(sel(S_ROLE, (OK, END_T)), sel(A_ROLE, (OK, END_T)))

    def test_payload_mismatch(self):
        assert not subtype(b(P, (Label("m", INT), END_T)), b(P, (Label("m", STRING), END_T)))

    def test_cross_shape(self):
        assert not subtype(END_T, b(P, (OK, END_T)))
        assert not subtype(sel(P, (OK, END_T)), b(P, (OK, END_T)))

    def test_equirec(self):
        loop = RecT("X", b(P, (OK, VarT("X"))))
        assert subtype(loop, unfold_type(loop))
        assert subtype(unfold_type(loop), loop)
        assert type_equiv(loop, b(P, (OK, loop)))

    def test_rec_vs_finite(self):
        loop = RecT("X", b(P, (OK, VarT("X"))))
        finite = b(P, (OK, b(P, (OK, END_T))))
        assert not subtype(loop, finite)
        assert not subtype(finite, loop)

    def test_session_payload_variance(self):
        from mpst import SessionSort

        small = b(S_ROLE, (OK, END_T))
        wide = b(S_ROLE, (OK, END_T), (CANCEL, END_T))
        # receiving a delegated endpoint: covariant
        assert subtype(
            b(P, (Label("d", SessionSort(small)), END_T)),
            b(P, (Label("d", SessionSort(wide)), END_T)),
        )
        # sending one: contravariant
        assert subtype(
            sel(P, (Label("d", SessionSort(wide)), END_T)),
            sel(P, (Label("d", SessionSort(small)), END_T)),
        )
        assert not subtype(
            sel(P, (Label("d", SessionSort(small)), END_T)),
            sel(P, (Label("d", SessionSort(wide)), END_T)),
        )


class TestMerge:
    def test_inputs_union(self):
        got = merge(b(S_ROLE, (OK, END_T)), b(S_ROLE, (CANCEL, END_T)))
        assert got == b(S_ROLE, (OK, END_T), (CANCEL, END_T))

    def test_select_idempotent(self):
        t = sel(C_ROLE, (OK, END_T))
        assert merge(t, t) == t

    def test_non_directed_input(self):
        with pytest.raises(ProtocolTypeError) as e:
            merge(b(S_ROLE, (OK, END_T)), b(A_ROLE, (OK, END_T)))
        assert e.value.kind is ErrorKind.NON_DIRECTED_INPUT

    def test_non_directed_output(self):
        with pytest.raises(ProtocolTypeError) as e:
            merge(sel(S_ROLE, (OK, END_T)), sel(A_ROLE, (OK, END_T)))
        assert e.value.kind is ErrorKind.NON_DIRECTED_OUTPUT

    def test_output_label_mismatch(self):
        with pytest.raises(ProtocolTypeError) as e:
            merge(sel(P, (OK, END_T)), sel(P, (CANCEL, END_T)))
        assert e.value.kind is ErrorKind.OUTPUT_MERGE_MISMATCH

    def test_shared_input_label_payload_mismatch(self):
        with pytest.raises(ProtocolTypeError) as e:
            merge(b(P, (Label("m", INT), END_T)), b(P, (Label("m", STRING), END_T)))
        assert e.value.kind is ErrorKind.PAYLOAD_MISMATCH

    def test_cross_shape_rejected(self):
        with pytest.raises(ProtocolTypeError):
            merge(b(P, (OK, END_T)), sel(P, (OK, END_T)))
        with pytest.raises(ProtocolTypeError):
            merge(b(P, (OK, END_T)), END_T)
        with pytest.raises(ProtocolTypeError):
            merge(b(P, (OK, END_T)), VarT("X"))

    def test_hereditary_outputs(self):
        left = sel(P, (OK, b(Q, (OK, END_T))))
        right = sel(P, (OK, b(Q, (CANCEL, END_T))))
        got = merge(left, right)
        assert got == sel(P, (OK, b(Q, (OK, END_T), (CANCEL, END_T))))

    def test_recursive_merge_closes_loop(self):
        loop = RecT("X", b(P, (OK, VarT("X"))))
        got = merge(loop, loop)
        assert type_equiv(got, loop)

    def test_rec_merges_with_finite_prefix(self):
        loop = RecT("X", b(P, (OK, VarT("X"))))
        other = b(P, (CANCEL, END_T))
        got = merge(loop, other)
        assert subtype(loop, got) and subtype(other, got)


class TestUnfold:
    def test_one_step(self):
        t = RecT("X", sel(Q, (OK, VarT("X"))))
        u = unfold_type(t)
        assert u == sel(Q, (OK, t))

    def test_end(self):
        assert unfold_type(END_T) is END_T

    def test_idempotent_on_random(self):
        rng = random.Random(11)
        for t in rng.sample(build_universe(rng, depth3_sample=50, mu2_sample=50), 120):
            assert unfold_type(unfold_type(t)) == unfold_type(t)

    def test_shadowing_respected(self):
        t = RecT("X", b(P, (OK, RecT("X", b(Q, (OK, VarT("X")))))))
        u = unfold_type(t)
        inner = dict(u.branches)[OK]
        assert isinstance(inner, RecT)
        assert inner == RecT("X", b(Q, (OK, VarT("X"))))

    def test_substitution_avoids_capture(self):
        from mpst.types import _free_vars, _subst

        # inserting a replacement with free Y under a binder named Y must
        # rename the binder, not capture the variable
        t = RecT("Y", b(P, (OK, VarT("X")), (CANCEL, VarT("Y"))))
        got = _subst(t, "X", b(Q, (OK, VarT("Y"))))
        assert "Y" in _free_vars(got)
        assert isinstance(got, RecT) and got.var != "Y"
        inner = dict(got.body.branches)
        assert inner[CANCEL] == VarT(got.var)  # old bound uses follow the rename
        assert inner[OK] == b(Q, (OK, VarT("Y")))  # the free Y stayed free

    def test_unfolding_a_loop_with_no_nested_binder_walks_no_free_variables(self, monkeypatch):
        """``_subst`` walks its replacement's free variables only at a nested
        binder that could capture them, so a first unfolding of each
        pingpong loop, closed and with one binder, walks none."""
        from mpst import types
        from mpst.bench import pingpong_protocol

        loops = types.type_global(pingpong_protocol()).values()
        assert all(isinstance(t, RecT) and "_unfolded" not in t.__dict__ for t in loops)
        walked = []
        free_vars = types._free_vars
        monkeypatch.setattr(types, "_free_vars", lambda *a: walked.append(a) or free_vars(*a))
        assert all(isinstance(unfold_type(t), Select | Branch) for t in loops)
        assert walked == []


class TestEquiv:
    def test_unfolding_equiv(self):
        loop = RecT("X", b(P, (OK, VarT("X"))))
        assert type_equiv(loop, b(P, (OK, loop)))

    def test_not_equiv(self):
        assert not type_equiv(END_T, b(P, (OK, END_T)))

    def test_useless_binder_invisible(self):
        t = b(P, (OK, END_T))
        assert type_equiv(RecT("Z", t), t)

    def test_agrees_with_bounded_tree_equality(self):
        rng = random.Random(3)
        universe = build_universe(rng, depth3_sample=60, mu2_sample=60)
        sample = rng.sample(universe, 90)
        for a in sample:
            for bb in sample:
                if not oracle_conclusive(a, bb, 8):
                    continue
                assert type_equiv(a, bb) == trees_equal_bounded(a, bb, 8), (a, bb)


class TestPropertySuite:
    """Preorder and lattice laws over the enumerated universe."""

    rng = random.Random(5)
    universe = build_universe(rng)
    sample = rng.sample(universe, 170)

    def test_reflexive(self):
        assert all(subtype(t, t) for t in self.universe)

    def test_transitive(self):
        rel = {id(a): {id(c) for c in self.sample if subtype(a, c)} for a in self.sample}
        for a in self.sample:
            for c in self.sample:
                if id(c) in rel[id(a)]:
                    assert rel[id(c)] <= rel[id(a)]

    def test_oracle_agreement(self):
        checked = 0
        for a in self.sample[:110]:
            for c in self.sample[:110]:
                alg = subtype(a, c)
                if alg:
                    assert subtype_bounded(a, c, 8), (a, c)
                if oracle_conclusive(a, c, 8):
                    checked += 1
                    assert alg == subtype_bounded(a, c, 8), (a, c)
        assert checked > 500  # the conclusiveness gate must not be vacuous

    def _merges(self, items):
        for a in items:
            for c in items:
                try:
                    yield a, c, merge(a, c)
                except ProtocolTypeError:
                    continue

    def test_merge_upper_bound_and_commutative(self):
        count = 0
        for a, c, m in self._merges(self.sample[:120]):
            count += 1
            assert subtype(a, m) and subtype(c, m), (a, c, m)
            assert type_equiv(m, merge(c, a))
        assert count > 100

    def test_merge_idempotent(self):
        for t in self.sample:
            assert type_equiv(merge(t, t), t)

    def test_merge_associative_where_defined(self):
        items = self.sample[:45]
        checked = 0
        for a in items:
            for c in items:
                for d in items:
                    try:
                        left = merge(merge(a, c), d)
                        right = merge(a, merge(c, d))
                    except ProtocolTypeError:
                        continue
                    checked += 1
                    assert type_equiv(left, right), (a, c, d)
        assert checked > 50

    def test_merge_minimal_among_candidates(self):
        candidates = self.sample[:150]
        pairs = list(self._merges(self.sample[:60]))
        for a, c, m in pairs:
            for v in candidates:
                if subtype(a, v) and subtype(c, v) and subtype(v, m):
                    assert type_equiv(v, m), (a, c, v, m)

    def test_merge_monotone(self):
        small = enumerate_closed(1)
        for a in small:
            for a2 in small:
                if not subtype(a, a2):
                    continue
                for c in small:
                    for c2 in small:
                        if not subtype(c, c2):
                            continue
                        try:
                            m1 = merge(a, c)
                            m2 = merge(a2, c2)
                        except ProtocolTypeError:
                            continue
                        assert subtype(m1, m2), (a, c, a2, c2)

    def test_branch_widening_sound(self):
        smalls = [t for t in enumerate_closed(2) if isinstance(t, Branch)]
        for t in self.rng.sample(smalls, 60):
            extra = Label("m9", UNIT)
            wide = Branch(t.peer, t.branches + ((extra, END_T),))
            assert subtype(t, wide)


def test_two_first_unfoldings_meeting_inside_subst_both_substitute(monkeypatch):
    """Ledger row [8] of ``mpst.runtime``, forced: of two first unfoldings of
    one loop, the second starts once the first is inside ``_subst``, between
    its cache miss and its store, and the two meet at a barrier there.  Both missed,
    so both substitute, both get the loop's one-step unfolding, and one of
    the two stands.  An unfolding that stored the unsubstituted body before
    ``_subst`` would hand the second caller a free variable, and the second
    would never reach the barrier."""
    from mpst import types

    for _ in range(20):
        loop = RecT("X", sel(P, (OK, VarT("X")), (CANCEL, END_T)))  # fresh: nothing cached
        got = meet_inside(monkeypatch, types, "_subst", lambda: unfold_type(loop))
        assert got == [sel(P, (OK, loop), (CANCEL, END_T))] * 2
        assert any(loop.__dict__["_unfolded"] is u for u in got)


def test_two_first_hashes_meeting_inside_the_structural_hash_both_compute(monkeypatch):
    """Ledger row [9] of ``mpst.runtime``, forced: of two first hashes of one
    node, the second starts once the first is inside the node's structural
    hash, between its cache miss and its store, and the two meet at a barrier
    in the hash of the node's payload sort.  Both missed, so both compute,
    both return the structural hash, and the stored one equals it.  A hash
    that stored a placeholder before computing would hand the second caller
    the placeholder, and the second would never reach the barrier."""
    from mpst.protocol import _BaseSort

    for _ in range(20):
        want = hash(sel(P, (Label("m", INT), END_T)))
        node = sel(P, (Label("m", INT), END_T))  # fresh: nothing cached
        got = meet_inside(monkeypatch, _BaseSort, "__hash__", lambda: hash(node))
        assert got == [want, want] and node.__dict__["_hash"] == want


PICKLE_IN_ONE_PROCESS = """
import pickle, sys
from mpst import Label, Role
from mpst.types import END_T, RecT, Select, VarT, unfold_type

def types():
    p, m = Role("p"), Label("m")
    return [Select(p, ((m, END_T),)), RecT("X", Select(p, ((m, VarT("X")),)))]

if sys.argv[1] == "dump":
    ts = types()
    for t in ts:
        hash(t)
    unfold_type(ts[1])
    sys.stdout.buffer.write(pickle.dumps(ts))
else:
    loaded, fresh = pickle.loads(sys.stdin.buffer.read()), types()
    print([not {"_hash", "_unfolded"} & x.__dict__.keys() and x == y and x in {y}
           for x, y in zip(loaded, fresh)])
"""


def test_a_type_pickled_in_one_process_hashes_as_a_fresh_one_in_another():
    """A node's cached hash and unfolding stay behind when it is pickled: a
    role's hash is seeded per process, so a type hashed and unfolded under one
    seed and loaded under another equals and hashes as a fresh equal type,
    and holds neither cache."""
    src = str(Path(mpst.__file__).parents[1])

    def run(seed: str, mode: str, given: bytes = b"") -> bytes:
        env = {"PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", PICKLE_IN_ONE_PROCESS, mode], input=given,
                              env=env, capture_output=True, timeout=60, check=True)
        return done.stdout

    assert run("2", "load", run("1", "dump")).decode().strip() == "[True, True]"
