"""Falsification search, structured witnesses, separation certificates."""

import itertools
import json

import pytest

from qlat.formula import (
    Assignment,
    ONE,
    alpha,
    alpha_levels,
    evaluate,
    evaluate_equation,
    evaluate_with_cache,
    law,
    m_distributive,
    parse_equation,
)
from qlat.search import (
    COUNTEREXAMPLE,
    NO_COUNTEREXAMPLE,
    SeparationCertificate,
    Verdict,
    audit_invariants,
    certificate_to_json,
    embed_assignment,
    falsify,
    huhn_witness,
    lift_counterexample,
    qubit_alpha_separator,
    separate_dims,
    structured_alpha_witness,
    verdict_from_json,
    verdict_to_json,
)
from qlat.linalg import GR_ONE, GR_ZERO
from qlat.subspace import Subspace, span


def _chained_witness(n):
    """Oracle for the qubit route's witness: the evaluate-to-build chain, in
    which triple k splits the rational basis of level k-1's evaluated value."""
    high = 2 ** (n + 1)
    rows = [[GR_ONE if j == i else GR_ZERO for j in range(high)] for i in range(high)]
    subs = {}
    for k, level in enumerate(alpha_levels(n + 1), start=1):
        h = len(rows) // 2
        subs[f"p{k}"] = span(rows[:h], high)
        subs[f"q{k}"] = span(rows[h:], high)
        subs[f"r{k}"] = span([[a + b for a, b in zip(rows[i], rows[h + i])]
                              for i in range(h)], high)
        value = evaluate(level, Assignment(subs, high))
        rows = [list(r) for r in value.basis.entries]
    return Assignment(subs, high), value


def _last_coordinates(count, high):
    return span([[int(j == i) for j in range(high)] for i in range(high - count, high)], high)


class TestFalsify:
    def test_distributivity_counterexample_in_c2(self):
        v = falsify(law("distributivity"), 2, 1000, seed=5)
        assert v.status == COUNTEREXAMPLE
        assert v.witness is not None
        # the witness replays to a genuine gap
        holds, lv, rv = evaluate_equation(v.equation, v.witness)
        assert not holds
        assert (lv, rv) == v.witness_gap

    def test_modularity_no_counterexample(self):
        v = falsify(law("modularity"), 4, 500, seed=5)
        assert v.status == NO_COUNTEREXAMPLE
        assert v.trials_run == 500
        assert v.witness is None

    def test_reflexive_equation_never_fails(self):
        v = falsify(parse_equation("x = x"), 3, 50, seed=0)
        assert v.status == NO_COUNTEREXAMPLE

    def test_variable_free_equation(self):
        v = falsify(parse_equation("0 = 0"), 2, 3, seed=0)
        assert v.status == NO_COUNTEREXAMPLE
        v = falsify(parse_equation("1 = 0"), 2, 3, seed=0)
        assert v.status == COUNTEREXAMPLE
        assert len(v.witness) == 0

    def test_bare_formula_read_as_tautology_claim(self):
        v = falsify(parse_equation("x | ~x = 1").lhs, 2, 50, seed=0)
        assert v.equation.rhs == ONE
        assert v.status == NO_COUNTEREXAMPLE

    def test_determinism(self):
        a = falsify(law("distributivity"), 2, 200, seed=9)
        b = falsify(law("distributivity"), 2, 200, seed=9)
        assert a == b
        assert verdict_to_json(a) == verdict_to_json(b)

    def test_failing_trial_evaluated_once(self, monkeypatch):
        import qlat.search

        calls = []

        def counted(eq, a):
            calls.append(a)
            return evaluate_equation(eq, a)

        monkeypatch.setattr(qlat.search, "evaluate_equation", counted)
        v = falsify(law("distributivity"), 2, 1000, seed=5)
        assert v.status == COUNTEREXAMPLE and v.trials_run == 9
        assert len(calls) == 9
        assert calls[-1] is v.witness

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            falsify(law("modularity"), 2, 0, seed=0)

    @pytest.mark.parametrize("source", ["0 = 0", "x = x"])
    @pytest.mark.parametrize("bound", [0, -5])
    def test_entry_bound_checked_before_any_draw(self, source, bound):
        # an equation without variables draws nothing, so only the up-front
        # check can reject the bound
        with pytest.raises(ValueError, match="entry bound must be at least 1"):
            falsify(parse_equation(source), 2, 3, seed=0, entry_bound=bound)

    def test_verdict_invariants(self):
        with pytest.raises(ValueError):
            Verdict("bogus", law("modularity"), 2, 1, 0)
        with pytest.raises(ValueError):
            Verdict(COUNTEREXAMPLE, law("modularity"), 2, 1, 0)


class TestStructuredWitness:
    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_half_dimension(self, m):
        a = structured_alpha_witness(m)
        assert evaluate(alpha(), a).dim == m // 2
        p, q, r = a["p"], a["q"], a["r"]
        assert p.meet(q).is_zero() and p.meet(r).is_zero() and q.meet(r).is_zero()
        assert p.dim == q.dim == r.dim == m // 2

    def test_m2_is_standard_triple(self):
        a = structured_alpha_witness(2)
        assert a["p"] == span([[1, 0]], 2)
        assert a["q"] == span([[0, 1]], 2)
        assert a["r"] == span([[1, 1]], 2)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            structured_alpha_witness(3)
        with pytest.raises(ValueError):
            structured_alpha_witness(0)


class TestQubitSeparator:
    def test_alpha_vanishes_exhaustively_in_c1(self):
        # only the bottom and top exist in C^1, so this is a complete check
        zero, one = Subspace.zero(1), Subspace.full(1)
        for bits in itertools.product((zero, one), repeat=3):
            a = Assignment(dict(zip("pqr", bits)), 1)
            assert evaluate(alpha(), a).is_zero()

    def test_n0(self):
        cert = qubit_alpha_separator(0, trials=100, seed=1)
        assert (cert.low_dim, cert.high_dim) == (1, 2)
        assert cert.holds_evidence.status == NO_COUNTEREXAMPLE
        assert cert.fails_witness.status == COUNTEREXAMPLE
        gap_lhs, gap_rhs = cert.fails_witness.witness_gap
        assert gap_lhs.dim == 1 and gap_rhs.is_zero()

    def test_n1_chained_witness(self):
        cert = qubit_alpha_separator(1, trials=100, seed=1)
        assert (cert.low_dim, cert.high_dim) == (2, 4)
        assert cert.fails_witness.witness_gap[0].dim == 1
        # witness replays exactly
        holds, lv, _ = evaluate_equation(cert.separator, cert.fails_witness.witness)
        assert not holds and lv.dim == 1

    def test_entry_bound_reaches_sampling(self, monkeypatch):
        import qlat.search

        bounds = []
        plain = qlat.search._draw_assignment

        def spy(*args):
            bounds.append(args[-1])
            return plain(*args)

        monkeypatch.setattr(qlat.search, "_draw_assignment", spy)
        qubit_alpha_separator(1, trials=3, entry_bound=1)
        assert bounds == [1, 1, 1]
        with pytest.raises(ValueError, match="entry bound"):
            qubit_alpha_separator(1, trials=3, entry_bound=0)

    def test_audit_reads_node_cache(self, monkeypatch):
        # two evaluations per trial (one per side) and one for the witness,
        # whose cache holds every level; auditing by evaluating again made it
        # 3 per trial, and building each level from the one before added 3
        import qlat.formula
        import qlat.search

        calls = []
        plain = qlat.formula.evaluate_with_cache

        def counted(*args, **kwargs):
            calls.append(args[0])
            return plain(*args, **kwargs)

        for mod in (qlat.formula, qlat.search):
            if getattr(mod, "evaluate_with_cache", None) is plain:
                monkeypatch.setattr(mod, "evaluate_with_cache", counted)
        qubit_alpha_separator(2, trials=10)
        assert len(calls) == 21

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_closed_form_matches_chained_oracle(self, n):
        cert = qubit_alpha_separator(n, trials=4, seed=2)
        witness, value = _chained_witness(n)
        high = cert.high_dim
        fails = Verdict(COUNTEREXAMPLE, cert.separator, high, 1, 2, witness,
                        (value, Subspace.zero(high)))
        oracle = SeparationCertificate(cert.low_dim, high, cert.separator,
                                       cert.holds_evidence, fails)
        assert certificate_to_json(cert) == certificate_to_json(oracle)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_level_evaluates_to_its_q(self, n):
        cert = qubit_alpha_separator(n, trials=1)
        witness, high = cert.fails_witness.witness, cert.high_dim
        levels = alpha_levels(n + 1)
        _, nodes = evaluate_with_cache(levels[-1], witness)
        for k, level in enumerate(levels, start=1):
            q = _last_coordinates(high // 2 ** k, high)
            assert witness[f"q{k}"] == q
            assert nodes[id(level)] == q, k
        assert cert.fails_witness.witness_gap == (nodes[id(levels[-1])], Subspace.zero(high))

    def test_witness_levels_are_checked(self, monkeypatch):
        # swapping p and q moves level 1's value off the block that triple 2
        # splits, so level 2 evaluates to 0 instead of q2
        import qlat.search

        plain = qlat.search._half_split_triple

        def swapped(rows, ambient):
            p, q, r = plain(rows, ambient)
            return q, p, r

        monkeypatch.setattr(qlat.search, "_half_split_triple", swapped)
        with pytest.raises(RuntimeError, match="level 2 is not q2"):
            qubit_alpha_separator(1, trials=1)

    def test_nodes_hook_and_three_argument_hook(self):
        eq = law("distributivity")
        seen = []

        def with_nodes(a, lv, rv, nodes):
            assert nodes[id(eq.lhs)] is lv and nodes[id(eq.rhs)] is rv
            seen.append("nodes")

        def plain(a, lv, rv):
            seen.append("plain")

        falsify(eq, 2, 5, seed=0, audit=with_nodes)
        falsify(eq, 2, 5, seed=0, audit=plain)
        assert seen == ["nodes"] * 5 + ["plain"] * 5


class TestSeparateDims:
    def test_huhn_1_2(self):
        cert = separate_dims(1, 2, seed=0, holds_trials=100)
        assert cert.separator == parse_equation(
            "x & (y0 | y1) = x & y1 | x & y0")
        assert cert.fails_witness.status == COUNTEREXAMPLE
        holds, _, _ = evaluate_equation(cert.separator, cert.fails_witness.witness)
        assert not holds

    def test_huhn_2_3(self):
        cert = separate_dims(2, 3, seed=0, holds_trials=100)
        assert cert.fails_witness.ambient_dim == 3
        holds, _, _ = evaluate_equation(cert.separator, cert.fails_witness.witness)
        assert not holds

    def test_order_validated(self):
        with pytest.raises(ValueError):
            separate_dims(2, 2, seed=0)
        with pytest.raises(ValueError):
            separate_dims(3, 2, seed=0)
        with pytest.raises(ValueError):
            separate_dims(0, 1, seed=0)

    def test_budgets_ignored_witness_replays(self):
        # the witness is built, not searched for, so even a one-trial budget
        # yields a certificate whose witness replays to the recorded gap
        cert = separate_dims(2, 3, seed=0, holds_trials=10, budgets=(1,))
        holds, lv, rv = evaluate_equation(cert.separator, cert.fails_witness.witness)
        assert not holds
        assert (lv, rv) == cert.fails_witness.witness_gap
        assert cert.holds_evidence.trials_run == 10

    def test_witness_fails_law(self):
        pairs = [(m, n) for n in range(2, 9) for m in range(1, n)] + [(1, 16), (15, 16)]
        for m, n in pairs:
            holds, lv, rv = evaluate_equation(m_distributive(m), huhn_witness(m, n))
            assert not holds and lv.dim == 1 and rv.dim == 0, (m, n)

    def test_fails_witness_records_user_seed(self):
        for cert in (separate_dims(2, 3, seed=9, holds_trials=5),
                     qubit_alpha_separator(1, trials=5, seed=9)):
            assert cert.fails_witness.seed == 9
            assert cert.fails_witness.trials_run == 1

    def test_certificate_invariants(self):
        good = separate_dims(1, 2, seed=0, holds_trials=50)
        with pytest.raises(ValueError):
            SeparationCertificate(2, 1, good.separator, good.holds_evidence,
                                  good.fails_witness)
        with pytest.raises(ValueError):
            SeparationCertificate(1, 2, good.separator, good.holds_evidence,
                                  good.holds_evidence)


class TestLift:
    def test_lift_preserves_counterexample(self):
        v = falsify(law("distributivity"), 2, 500, seed=3)
        assert v.status == COUNTEREXAMPLE
        lifted = lift_counterexample(v, 2)
        assert lifted.ambient_dim == 4
        assert lifted.status == COUNTEREXAMPLE
        lhs, rhs = lifted.witness_gap
        old_lhs, old_rhs = v.witness_gap
        assert lhs.dim == 2 * old_lhs.dim and rhs.dim == 2 * old_rhs.dim

    def test_lift_requires_counterexample(self):
        v = falsify(law("modularity"), 2, 20, seed=0)
        with pytest.raises(ValueError):
            lift_counterexample(v, 2)

    def test_embedding_commutes_with_eval(self):
        v = falsify(law("distributivity"), 2, 500, seed=3)
        emb = embed_assignment(v.witness, 3)
        assert emb.ambient == 6
        _, lv, rv = evaluate_equation(v.equation, emb)
        assert lv == v.witness_gap[0].tensor_embed(3)
        assert rv == v.witness_gap[1].tensor_embed(3)


class TestAudit:
    def test_standard_triple_passes(self):
        a = structured_alpha_witness(2)
        report = audit_invariants(a)
        assert report["all_pass"]
        names = [c["name"] for c in report["checks"]]
        assert "alpha_in_ortho_p" in names
        assert any(n.startswith("valuation") for n in names)

    def test_without_pqr_still_runs(self):
        report = audit_invariants({"x": span([[1, 0]], 2)})
        assert report["all_pass"]
        assert all(not c["name"].startswith("alpha") for c in report["checks"])

    def test_report_is_jsonable(self):
        report = audit_invariants(structured_alpha_witness(4))
        json.dumps(report)


class TestVerdictJson:
    def test_round_trip_counterexample(self):
        v = falsify(law("distributivity"), 2, 500, seed=7)
        blob = verdict_to_json(v)
        back = verdict_from_json(blob)
        assert back == v
        # replay through the serialized witness reproduces the recorded gap
        holds, lv, rv = evaluate_equation(back.equation, back.witness)
        assert not holds and (lv, rv) == back.witness_gap

    def test_round_trip_no_counterexample(self):
        v = falsify(law("modularity"), 3, 25, seed=7)
        blob = verdict_to_json(v)
        assert blob["witness"] is None and blob["gap"] is None
        assert verdict_from_json(blob) == v

    @pytest.mark.parametrize("key,value", [("trials", 9.7), ("seed", True), ("ambient", 2.0)])
    def test_non_integer_field_rejected(self, key, value):
        v = falsify(law("distributivity"), 2, 100, seed=5)
        blob = json.loads(json.dumps(verdict_to_json(v)))
        assert verdict_from_json(blob) == v
        blob[key] = value
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            verdict_from_json(blob)

    @pytest.mark.parametrize("key", ["status", "equation", "ambient", "trials", "seed", "gap"])
    def test_missing_key_rejected(self, key):
        blob = verdict_to_json(falsify(law("distributivity"), 2, 100, seed=5))
        del blob[key]
        with pytest.raises(ValueError, match=f"missing the key '{key}'"):
            verdict_from_json(blob)

    def test_non_string_equation_rejected(self):
        blob = verdict_to_json(falsify(law("modularity"), 2, 5, seed=5))
        blob["equation"] = 7
        with pytest.raises(ValueError, match="equation must be a string"):
            verdict_from_json(blob)

    def test_certificate_json_shape(self):
        cert = separate_dims(1, 2, seed=0, holds_trials=50)
        blob = certificate_to_json(cert)
        assert set(blob) == {"low_dim", "high_dim", "separator",
                             "holds_evidence", "fails_witness"}
        json.dumps(blob)
