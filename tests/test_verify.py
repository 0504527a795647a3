import json
import math

import numpy as np
import pytest

from hqflow import geometry, symmfunc, verify


@pytest.fixture(scope="module")
def small_suite():
    return verify.run_suite(trials=60, seed=0)


class TestRunSuite:
    def test_all_properties_pass(self, small_suite):
        failed = [r.name for r in small_suite.values() if not r.ok]
        assert failed == []

    def test_covers_registry_in_order(self, small_suite):
        assert list(small_suite) == list(verify.PROPERTIES)

    def test_trial_counts_honoured(self, small_suite):
        assert all(r.trials == 60 for r in small_suite.values())

    def test_kinds_recorded(self, small_suite):
        kinds = {r.kind for r in small_suite.values()}
        assert kinds == {"identity", "bound"}

    def test_identity_margins_tiny(self, small_suite):
        for r in small_suite.values():
            if r.kind == "identity":
                assert r.worst_margin <= r.tolerance

    def test_bound_margins_above_slack(self, small_suite):
        for r in small_suite.values():
            if r.kind == "bound":
                assert r.worst_margin >= -r.tolerance

    def test_rerun_is_bitwise_identical(self, small_suite):
        again = verify.run_suite(trials=60, seed=0)
        for name, r in small_suite.items():
            s = again[name]
            assert (r.passes, r.trials) == (s.passes, s.trials)
            assert r.worst_margin == s.worst_margin

    def test_subset_reproduces_full_run(self, small_suite):
        name = "negative_entry_gradient"
        only = verify.run_suite(trials=60, seed=0, names=[name])
        assert list(only) == [name]
        assert only[name].worst_margin == small_suite[name].worst_margin
        assert only[name].passes == small_suite[name].passes

    def test_seed_changes_margins(self, small_suite):
        other = verify.run_suite(trials=60, seed=1,
                                 names=["deletion_identity"])
        r = other["deletion_identity"]
        assert r.ok
        assert r.worst_margin != small_suite["deletion_identity"].worst_margin

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown properties"):
            verify.run_suite(trials=1, names=["no_such_property"])

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            verify.run_suite(trials=-1)

    def test_argument_errors_name_their_argument(self):
        with pytest.raises(geometry.ArgumentError) as exc:
            verify.run_suite(trials=-1)
        assert exc.value.field == "trials"
        with pytest.raises(geometry.ArgumentError) as exc:
            verify.run_suite(trials=1, names=["no_such_property"])
        assert exc.value.field == "names"


class TestVacuousRun:
    def test_zero_trials_pass_with_flag(self):
        res = verify.run_suite(trials=0, seed=0)
        for r in res.values():
            assert r.trials == 0 and r.passes == 0
            assert r.ok and r.vacuous
            assert math.isnan(r.worst_margin)

    def test_nonvacuous_flag(self, small_suite):
        assert not any(r.vacuous for r in small_suite.values())


class TestResultsToDict:
    def test_json_round_trip(self, small_suite):
        payload = verify.results_to_dict(small_suite)
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert set(back) == set(verify.PROPERTIES)
        r = back["deletion_identity"]
        assert r["ok"] is True and r["trials"] == 60

    def test_nan_margin_becomes_null(self):
        res = verify.run_suite(trials=0, names=["sorted_product_bound"])
        payload = verify.results_to_dict(res)
        assert payload["sorted_product_bound"]["worst_margin"] is None
        json.dumps(payload)


class TestDefaultBudgets:
    def test_bulk_properties_run_ten_thousand(self):
        bulk = [n for n, (_, t) in verify.PROPERTIES.items() if t == 10000]
        assert len(bulk) == 14

    def test_matrix_properties_run_one_thousand(self):
        small = [n for n, (_, t) in verify.PROPERTIES.items() if t == 1000]
        assert sorted(small) == ["derivative_matrix_definite",
                                 "derivative_matrix_matches_fd",
                                 "midpoint_concavity"]


class TestCountsByN:
    def test_budget_split_exactly(self):
        counts = verify._counts_by_n(100, 2, 8)
        assert sum(counts.values()) == 100
        assert set(counts) == set(range(2, 9))
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_small_budget_fills_low_dimensions_first(self):
        counts = verify._counts_by_n(3, 2, 8)
        assert counts[2] == counts[3] == counts[4] == 1
        assert counts[8] == 0


class TestSelfTest:
    def test_shadow_calculus_is_caught(self):
        assert verify.self_test(seed=0, trials=120) is True

    def test_honest_calculus_everywhere(self):
        res = verify.run_suite(trials=40, seed=7)
        assert all(r.ok for r in res.values())

    @staticmethod
    def _count_runs(monkeypatch):
        ran = []
        for name, (func, default_trials) in list(verify.PROPERTIES.items()):
            def counted(rng, trials, calc, func=func, name=name):
                ran.append(name)
                return func(rng, trials, calc)
            monkeypatch.setitem(verify.PROPERTIES, name,
                                (counted, default_trials))
        return ran

    def test_stops_at_the_first_property_that_flags_the_fault(
            self, monkeypatch):
        ran = self._count_runs(monkeypatch)
        assert verify.self_test(seed=1) is True
        assert ran == ["deletion_identity"]

    def test_honest_shadow_runs_every_property_and_fails(self, monkeypatch):
        ran = self._count_runs(monkeypatch)
        monkeypatch.setattr(verify._ShadowCalc, "_corrupt",
                            staticmethod(lambda lam: lam))
        assert verify.self_test(seed=7, trials=40) is False
        assert ran == list(verify.PROPERTIES)


class TestInteriorSampling:
    def test_margin_filter_keeps_cone_interior(self):
        rng = np.random.default_rng(5)
        rows = verify._interior_rows(rng, 3, 3, 50)
        assert rows.shape == (50, 3)
        assert float(rows.min()) > verify._FD_MARGIN


# The planted sign fault (sigma sees entry 0 of each list negated) breaks
# exactly these seven properties at 200 trials and seeds 0, 1 and 101; the
# other ten pass under it.  The pass counts were measured with the
# one-trial-at-a-time suite; a fault planted on the wrong axis of a stack
# (say, all of a stack's first list) keeps the set but not the counts.
_SHADOW_PASSES = {
    0: {"deletion_count_sum": 0, "deletion_identity": 27,
        "negative_entry_deletion": 33, "normalized_quotient_monotone": 25,
        "pinched_deletion": 17, "sigma_matches_enumeration": 0,
        "weighted_deletion_sum": 33},
    1: {"deletion_count_sum": 0, "deletion_identity": 37,
        "negative_entry_deletion": 22, "normalized_quotient_monotone": 12,
        "pinched_deletion": 17, "sigma_matches_enumeration": 0,
        "weighted_deletion_sum": 30},
    101: {"deletion_count_sum": 0, "deletion_identity": 33,
          "negative_entry_deletion": 19, "normalized_quotient_monotone": 23,
          "pinched_deletion": 17, "sigma_matches_enumeration": 0,
          "weighted_deletion_sum": 41},
}


class TestShadowCalc:
    @pytest.mark.parametrize("seed", [0, 1, 101])
    def test_planted_fault_fails_exactly_the_sigma_properties(self, seed):
        res = verify.run_suite(trials=200, seed=seed,
                               calc=verify._ShadowCalc())
        failed = {name: r.passes for name, r in res.items() if not r.ok}
        assert set(failed) == {
            "deletion_count_sum", "deletion_identity",
            "negative_entry_deletion", "normalized_quotient_monotone",
            "pinched_deletion", "sigma_matches_enumeration",
            "weighted_deletion_sum"}
        assert failed == _SHADOW_PASSES[seed]

    def test_corrupts_entry_zero_of_every_list_of_a_stack(self):
        stack = np.arange(1.0, 13.0).reshape(2, 2, 3)
        out = verify._ShadowCalc._corrupt(stack)
        want = stack.copy()
        want[..., 0] *= -1.0
        assert np.array_equal(out, want)
        assert stack[0, 0, 0] == 1.0

    def test_stacked_sigma_sees_each_list_corrupted(self):
        calc = verify._ShadowCalc()
        stack = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert calc.sigma(stack, 1).tolist() == [4.0, 7.0]
        assert calc.elementary_all(stack)[:, 3].tolist() == [-6.0, -120.0]

    def test_honest_functions_looked_up_at_call_time(self, monkeypatch):
        # a wrapper put on symmfunc after verify was imported, as the
        # bench tracer does, sees the self-test's calls
        calls = []
        d_quotient = symmfunc.d_quotient

        def wrapped(*args):
            calls.append(args)
            return d_quotient(*args)

        monkeypatch.setattr(symmfunc, "d_quotient", wrapped)
        calc = verify._ShadowCalc()
        assert calc.d_quotient is wrapped
        lam = np.array([3.0, 2.0, 1.0])
        assert np.array_equal(calc.d_quotient(lam, 2, 1),
                              d_quotient(lam, 2, 1))
        assert len(calls) == 1
