"""Tests of the solver's phase kernels: projection and degenerate cases.

The customer and supplier phases are checked bit for bit against the
plain formulas below, which are the reference the kernels must reproduce
exactly, and the customer phase against itself run in a caller's
workspace instead of fresh arrays. The projection's uniform-shift rule is
also checked against the full sort-and-threshold projection, to within
the rounding of a customer's daily sum.

The customer-phase arrays are slot-major, T x N: one row per slot and
one column per customer, as the solver loop holds them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_peak

from mec_bazaar import _kernels
from mec_bazaar.bidding_games import run_dtoa
from mec_bazaar.scenario_io import (
    GenerationParams,
    generate_scenario,
    save_result,
)

deterministic = settings(derandomize=True, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def sort_and_threshold(cand, totals):
    """Sort-and-threshold projection of every column onto {x >= 0, sum x
    = total}: rho is the last k with u_k (k+1) > css_k - total."""
    t, r = cand.shape
    u = np.sort(cand, axis=0)[::-1]
    css = np.cumsum(u, axis=0)
    k = np.arange(1.0, t + 1.0)[:, None]
    cond = u * k > css - totals
    any_true = cond.any(axis=0)
    rho = t - 1 - np.argmax(cond[::-1], axis=0)
    theta = (css[rho, np.arange(r)] - totals) / (rho + 1.0)
    out = np.maximum(cand - theta, 0.0)
    out[:, ~any_true] = 0.0
    return out


def shift_path(cand, totals):
    """Every column shifted by theta = (column sum - total) / T, and the
    columns whose projection that shift is: a finite theta and no entry
    < 0."""
    theta = (cand.sum(axis=0) - totals) / cand.shape[0]
    shifted = cand - theta
    return shifted, np.isfinite(theta) & (shifted >= 0.0).all(axis=0)


def project_reference(cand, totals):
    """The projection rule: the uniform shift where it leaves no entry
    below zero, the sort-and-threshold projection elsewhere."""
    shifted, fast = shift_path(cand, totals)
    return np.where(fast, shifted, sort_and_threshold(cand, totals))


def column(v):
    """A per-slot vector (or a scalar) as a column of a T x N array."""
    return np.reshape(v, (-1, 1))


def gradient_reference(chi, base, w, alpha, load, totals):
    x = chi + base
    up = np.where(x * alpha <= w, w - alpha * x, 0.0)
    return up - (column(load) + x) / column(totals)


def te_phase_reference(chi, base, w, alpha, load, totals, q, eta2,
                       **workspace):
    """The step in fresh arrays; the workspace buffers are ignored."""
    grad = gradient_reference(chi, base, w, alpha, load, totals)
    return project_reference(chi + column(eta2) * grad, q)


def columns(made):
    """The T x N candidate with one column per (values, total) pair of
    ``made``, and the totals."""
    cand = np.ascontiguousarray(np.array([v for v, _ in made]).T)
    return cand, np.array([q for _, q in made])


def es_direction_reference(lam, load, a2, a1):
    totals = lam.sum(axis=0)
    price = load / totals
    f = lam * (load / totals)
    guard = f >= (0.5 - _kernels.LEMMA1_MARGIN) * load
    denom = np.where(guard, 1.0, load - 2.0 * f)
    marginal = 2.0 * a2[:, None] * f + a1[:, None]
    return np.where(guard, -price, price - (load - f) / denom * marginal)


def es_phase_reference(lam, load, a2, a1, eta1, *, totals):
    """(new_bids, new_bid_totals, price, bad_slot) in fresh arrays: the
    price is the refreshed one, or the one before the step when a slot's
    new bids collapse or overflow; a slot whose bids already sum to zero
    returns the bids unchanged with their totals in place of a price.
    Bid totals the caller carries are ignored: the bids are summed
    afresh."""
    totals = lam.sum(axis=0)
    if np.any(totals <= 0.0):
        return lam, totals, totals, int(np.argmax(totals <= 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        new_lam = np.maximum(
            lam + eta1 * es_direction_reference(lam, load, a2, a1), 0.0)
        new_totals = new_lam.sum(axis=0)
    bad = ~(np.isfinite(new_totals) & (new_totals > 0.0))
    if np.any(bad):
        return new_lam, new_totals, load / totals, int(np.argmax(bad))
    return new_lam, new_totals, load / new_totals, -1


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


SHAPES = ("spread", "ties", "all_equal", "nan")
TOTALS = ("unclipped", "clipped", "one_left", "zero")


def make_row(rng, shape, total, t):
    """One customer's candidate of ``shape`` with a total that clips none,
    some, all but about one, or all of its entries. A "nan" candidate is
    a spread one with one entry replaced by NaN after its total is
    drawn."""
    scale = rng.uniform(0.1, 1e4)
    if shape == "ties":
        v = rng.integers(-2, 3, size=t) * scale
    elif shape == "all_equal":
        v = np.full(t, rng.normal(0.0, scale))
    else:
        v = rng.normal(0.0, scale, size=t)
    if total == "unclipped":
        q = v.sum() - t * v.min() + rng.uniform(0.1, 10.0) * scale
    elif total == "clipped":
        q = rng.uniform(0.0, 1.0) * scale
    elif total == "one_left":
        q = 1e-3 * scale
    else:
        q = 0.0
    if shape == "nan":
        v[rng.integers(t)] = np.nan
    return v, max(q, 0.0)


rows = st.lists(st.tuples(st.sampled_from(SHAPES), st.sampled_from(TOTALS)),
                min_size=1, max_size=8)


class TestProjectRowsParity:
    def test_feasibility(self):
        rng = np.random.default_rng(2)
        cand = rng.normal(0.0, 100.0, size=(24, 50))
        totals = rng.uniform(0.0, 50.0, size=50)
        out = _kernels.project_rows_np(cand, totals)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=0), totals,
                                   rtol=1e-9, atol=1e-12)

    def test_zero_total_row(self):
        out = _kernels.project_rows_np(np.array([[3.0], [-1.0]]),
                                       np.array([0.0]))
        np.testing.assert_array_equal(out, [[0.0], [0.0]])

    def test_one_total_for_all(self):
        cand = np.array([[3.0, 0.5], [-1.0, 0.5]])
        want = _kernels.project_rows_np(cand, np.array([2.0, 2.0]))
        for total in (2.0, np.array([2.0])):
            assert_same_bits(_kernels.project_rows_np(cand, total), want)


@pytest.fixture
def sorted_batches(monkeypatch):
    """Every batch of customers ``project_rows_np`` hands to the sort,
    recorded by a spy on ``_project_sorted``."""
    seen = []
    full = _kernels._project_sorted

    def spy(c, q):
        seen.append(c.copy())
        return full(c, q)

    monkeypatch.setattr(_kernels, "_project_sorted", spy)
    return seen


class TestProjectRowsExact:
    @deterministic
    @given(seed=seeds, t=st.integers(1, 30), kinds=rows)
    def test_matches_sort_and_threshold(self, seed, t, kinds):
        rng = np.random.default_rng(seed)
        cand, totals = columns([make_row(rng, shape, total, t)
                                for shape, total in kinds])
        assert_same_bits(_kernels.project_rows_np(cand, totals),
                         project_reference(cand, totals))

    @deterministic
    @given(seed=seeds, t=st.integers(1, 30))
    def test_unclipped_rows_take_only_the_shift(self, seed, t):
        rng = np.random.default_rng(seed)
        cand, totals = columns([make_row(rng, "spread", "unclipped", t)
                                for _ in range(5)])
        shifted, fast = shift_path(cand, totals)
        assert fast.all()
        assert_same_bits(_kernels.project_rows_np(cand, totals), shifted)

    def test_mixed_batch_sends_only_failing_rows_to_the_sort(
            self, sorted_batches):
        rng = np.random.default_rng(4)
        kinds = [("spread", "unclipped"), ("spread", "clipped"),
                 ("ties", "unclipped"), ("spread", "zero"),
                 ("all_equal", "unclipped"), ("spread", "one_left")]
        cand, totals = columns([make_row(rng, shape, total, 12)
                                for shape, total in kinds])
        fast = shift_path(cand, totals)[1]
        assert 0 < fast.sum() < len(kinds)
        out = _kernels.project_rows_np(cand, totals)
        assert len(sorted_batches) == 1
        assert_same_bits(sorted_batches[0], cand[:, ~fast])
        assert_same_bits(out, project_reference(cand, totals))

    def test_reference_run_never_sorts(self, sorted_batches):
        # the premise of the fast path: in the reference run (N=1000,
        # default schedule) the shift leaves every entry of every
        # customer >= 0
        result = run_dtoa(generate_scenario(GenerationParams(seed=1)))
        assert result.status == "converged"
        assert [len(batch) for batch in sorted_batches] == []

    def test_nan_row_zeroed_like_the_sort(self):
        cand = np.array([[1.0, 1.0], [np.nan, 2.0], [2.0, 3.0]])
        totals = np.array([5.0, 30.0])
        out = _kernels.project_rows_np(cand, totals)
        assert_same_bits(out, project_reference(cand, totals))
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_overflowing_row_sum_goes_to_the_sort(self):
        # the first customer sums to -inf, so theta = -inf shifts every
        # entry to +inf or NaN; the second sums to +inf
        cand = np.array([[-1e308, 1e308, 1.0], [-1e308, 1e308, 2.0],
                         [1.0, 1.0, 3.0]])
        totals = np.array([1.0, 1.0, 30.0])
        with np.errstate(over="ignore", invalid="ignore"):
            fast = shift_path(cand, totals)[1]
            out = _kernels.project_rows_np(cand, totals)
            want = project_reference(cand, totals)
        np.testing.assert_array_equal(fast, [False, False, True])
        assert_same_bits(out, want)


class TestProjectRowsRounding:
    """The shift rule agrees with the full sort-and-threshold projection
    up to the rounding of a customer's daily sum: (T + 1) eps times the
    customer's magnitude, the standard bound on a sum of the T entries
    and the total."""

    @deterministic
    @given(seed=seeds, t=st.integers(1, 30))
    def test_every_kind_within_rounding(self, seed, t):
        rng = np.random.default_rng(seed)
        cand, totals = columns([make_row(rng, shape, total, t)
                                for shape in SHAPES for total in TOTALS])
        out = _kernels.project_rows_np(cand, totals)
        nan = np.isnan(cand).any(axis=0)
        np.testing.assert_array_equal(out[:, nan], 0.0)
        cand, totals, out = cand[:, ~nan], totals[~nan], out[:, ~nan]
        tol = ((t + 1) * np.finfo(float).eps
               * (np.abs(cand).sum(axis=0) + totals))
        assert np.all(out >= 0.0)
        assert np.all(np.abs(out - sort_and_threshold(cand, totals)) <= tol)
        assert np.all(np.abs(out.sum(axis=0) - totals) <= tol)


def customer_inputs(rng, n, t):
    """T x N customer-phase inputs with some cells at exactly alpha x = w
    (the first always) and some saturated, alpha x > w (the last
    always)."""
    chi = rng.uniform(0.0, 3.0, size=(t, n))
    base = rng.uniform(0.0, 3.0, size=(t, n))
    alpha = rng.uniform(0.1, 0.9, size=(t, n))
    w = rng.uniform(0.5, 3.0, size=(t, n))
    pick = rng.random((t, n))
    w = np.where(pick < 0.2, (chi + base) * alpha, w)
    w[0, 0] = (chi[0, 0] + base[0, 0]) * alpha[0, 0]
    w[-1, -1] = 0.5 * (chi[-1, -1] + base[-1, -1]) * alpha[-1, -1]
    load = chi.sum(axis=1) + base.sum(axis=1)
    totals = rng.uniform(1.0, 50.0, size=t)
    return chi, base, w, alpha, load, totals


class TestCustomerPhaseExact:
    @deterministic
    @given(seed=seeds, n=st.integers(1, 20), t=st.integers(2, 12))
    def test_gradient_matches_where_form(self, seed, n, t):
        args = customer_inputs(np.random.default_rng(seed), n, t)
        chi, base, w, alpha = args[:4]
        x = chi + base
        assert_same_bits(_kernels.te_gradient(*args),
                         gradient_reference(*args))
        assert np.any(x * alpha == w) and np.any(x * alpha > w)

    @deterministic
    @given(seed=seeds, n=st.integers(1, 20), t=st.integers(1, 12),
           eta2=st.floats(1e-3, 1e3))
    def test_phase_matches_reference(self, seed, n, t, eta2):
        rng = np.random.default_rng(seed)
        args = customer_inputs(rng, n, t)
        q = args[0].sum(axis=0) * rng.uniform(0.0, 1.5, size=n)
        before = [a.copy() for a in args]
        assert_same_bits(_kernels.te_phase(*args, q, eta2),
                         te_phase_reference(*args, q, eta2))
        for a, b in zip(args, before):
            assert_same_bits(a, b)

    @deterministic
    @given(seed=seeds, n=st.integers(1, 20), t=st.integers(1, 12))
    def test_per_slot_step_matches_reference(self, seed, n, t):
        # the scale-free schedule hands one step per slot
        rng = np.random.default_rng(seed)
        args = customer_inputs(rng, n, t)
        q = args[0].sum(axis=0) * rng.uniform(0.0, 1.5, size=n)
        eta2 = rng.uniform(1e-3, 1e3, size=t)
        assert_same_bits(_kernels.te_phase(*args, q, eta2),
                         te_phase_reference(*args, q, eta2))


LIVENESS = ("dead", "brink", "edge", "saturated", "sloped")
DEAD = ("dead", "brink")


def mixed_market(rng, n, t, kinds):
    """T x N customer-phase inputs whose pairs are each, at random among
    ``kinds``: dead (alpha base > w), dead by one ulp (w the float just
    below alpha base), at the edge (alpha base == w exactly), live but
    flat at the demand (alpha base <= w <= alpha x) or live and sloped
    (alpha x < w). A fifth of the demands are exactly zero, so some edge
    pairs sit at alpha x == w and some brink pairs one ulp above it.
    Returns the inputs and the mask of live pairs."""
    chi = rng.uniform(0.0, 3.0, size=(t, n))
    chi[rng.random((t, n)) < 0.2] = 0.0
    base = rng.uniform(0.1, 3.0, size=(t, n))
    alpha = rng.uniform(0.1, 0.9, size=(t, n))
    at_base = alpha * base
    at_x = alpha * (chi + base)
    kind = rng.choice(np.array(sorted(kinds)), size=(t, n))
    w = np.select([kind == "dead", kind == "brink", kind == "edge",
                   kind == "saturated"],
                  [0.5 * at_base, np.nextafter(at_base, 0.0), at_base,
                   0.5 * (at_base + at_x)],
                  at_x + rng.uniform(0.1, 3.0, size=(t, n)))
    load = chi.sum(axis=1) + base.sum(axis=1)
    totals = rng.uniform(1.0, 50.0, size=t)
    return (chi, base, w, alpha, load, totals), ~np.isin(kind, DEAD)


class TestLivePairs:
    """The utility slope is taken only on a market with a live pair; any
    other market gets the price term alone, with the bits of the full
    formula."""

    @deterministic
    @given(seed=seeds, n=st.integers(1, 20), t=st.integers(1, 12),
           eta2=st.floats(1e-3, 1e3),
           kinds=st.sets(st.sampled_from(LIVENESS), min_size=1))
    @example(seed=1, n=6, t=5, eta2=0.5, kinds={"dead"})
    @example(seed=4, n=6, t=5, eta2=0.5, kinds={"dead", "brink"})
    @example(seed=2, n=6, t=5, eta2=0.5, kinds={"dead", "edge", "sloped"})
    @example(seed=3, n=6, t=5, eta2=0.5,
             kinds={"edge", "saturated", "sloped"})
    def test_matches_reference(self, seed, n, t, eta2, kinds):
        rng = np.random.default_rng(seed)
        args, live_mask = mixed_market(rng, n, t, kinds)
        chi, base, w, alpha = args[:4]
        q = chi.sum(axis=0) * rng.uniform(0.0, 1.5, size=n)
        live = _kernels.any_live(base, w, alpha)
        assert live == live_mask.any()
        want_grad = gradient_reference(*args)
        want_phase = te_phase_reference(*args, q, eta2)
        # the flag itself and the full formula (the default) give the
        # same bits on any market
        for given_live in (live, True):
            assert_same_bits(_kernels.te_gradient(*args, live=given_live),
                             want_grad)
            assert_same_bits(_kernels.te_phase(*args, q, eta2,
                                               live=given_live),
                             want_phase)
        out, scratch = dirty(chi, 2)
        assert_same_bits(_kernels.te_phase(*args, q, eta2, out=out,
                                           scratch=scratch, live=live),
                         want_phase)
        # without a live pair the gradient is built in out alone
        assert np.isnan(scratch).all() != live

    def test_reference_market_has_no_live_pairs(self):
        # with the default ranges (base >= 9660, w <= 1, alpha = 0.5)
        # alpha base is at least 4,830 times w, so no pair is live
        s = generate_scenario(GenerationParams(seed=1))
        assert not _kernels.any_live(s.base_demand, s.utility_w,
                                     s.utility_alpha)


def dirty(like, count):
    """``count`` buffers shaped like ``like``, filled with leftovers."""
    return [np.full_like(like, np.nan) for _ in range(count)]


class TestWorkspace:
    """With caller buffers the kernels give the bytes of the allocating
    call, leave their inputs alone and do not depend on what the buffers
    held before. The projection also runs in place (``out=cand``), as
    ``te_phase`` runs it, on columns of every kind: unclipped, clipped,
    about one entry left, zeroed, NaN and overflowing."""

    @deterministic
    @given(seed=seeds, t=st.integers(1, 30), kinds=rows)
    def test_projection_same_bytes(self, seed, t, kinds):
        rng = np.random.default_rng(seed)
        cand, totals = columns([make_row(rng, shape, total, t)
                                for shape, total in kinds])
        before = cand.copy(), totals.copy()
        want = _kernels.project_rows_np(cand, totals)
        out, = dirty(cand, 1)
        for _ in range(2):
            got = _kernels.project_rows_np(cand, totals, out=out)
            assert got is out
            assert_same_bits(got, want)
        assert_same_bits(cand, before[0])
        assert_same_bits(totals, before[1])

    @deterministic
    @given(seed=seeds, t=st.integers(1, 30), kinds=rows)
    @example(seed=0, t=3, kinds=[(shape, total) for shape in SHAPES
                                 for total in TOTALS])
    def test_projection_in_place_same_bytes(self, seed, t, kinds):
        rng = np.random.default_rng(seed)
        made = [make_row(rng, shape, total, t) for shape, total in kinds]
        # columns whose sum overflows to +inf and to -inf, and one that
        # holds +inf and -inf (its sum is NaN)
        made += [(np.full(t, 1e308), 1.0), (np.full(t, -1e308), 1.0),
                 (np.resize([np.inf, -np.inf, 1.0], t), 1.0)]
        cand, totals = columns(made)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _kernels.project_rows_np(cand, totals)
            got = _kernels.project_rows_np(cand, totals, out=cand)
        assert got is cand
        assert_same_bits(got, want)

    @deterministic
    @given(seed=seeds, n=st.integers(1, 20), t=st.integers(1, 12),
           eta2=st.floats(1e-3, 1e3),
           kinds=st.lists(st.sampled_from(TOTALS + ("nan", "overflowing")),
                          min_size=20, max_size=20))
    def test_phase_same_bytes(self, seed, n, t, eta2, kinds):
        rng = np.random.default_rng(seed)
        args = customer_inputs(rng, n, t)
        # daily totals that leave each stepped customer unclipped, clip
        # some of it, leave about one entry or zero every entry; a NaN
        # demand, or one so large that its stepped sum overflows, takes
        # the unclipped total
        scale = {"unclipped": 1.0, "clipped": 0.3, "one_left": 1e-3,
                 "zero": 0.0, "nan": 1.0, "overflowing": 1.0}
        q = args[0].sum(axis=0) * np.array([scale[k] for k in kinds[:n]])
        chi = args[0]
        for i, kind in enumerate(kinds[:n]):
            if kind == "nan":
                chi[rng.integers(t), i] = np.nan
            elif kind == "overflowing":
                chi[:, i] = 1e308
        before = [a.copy() for a in (*args, q)]
        with np.errstate(over="ignore", invalid="ignore"):
            want = _kernels.te_phase(*args, q, eta2)
            out, scratch = dirty(chi, 2)
            for _ in range(2):
                got = _kernels.te_phase(*args, q, eta2, out=out,
                                        scratch=scratch)
                assert got is out
                assert_same_bits(got, want)
        for a, b in zip((*args, q), before):
            assert_same_bits(a, b)

    def test_phase_allocates_no_matrix(self):
        # N=2000, T=24: with a workspace one step allocates only
        # per-customer vectors, a small fraction of one T x N buffer.
        # This holds with the flag run_dtoa passes, on a generated market
        # (no live pair) and on one with w raised on a tenth of its
        # pairs.
        s = generate_scenario(GenerationParams(num_te=2000, seed=1))
        chi, base, alpha = (np.ascontiguousarray(a.T) for a in (
            s.initial_demand, s.base_demand, s.utility_alpha))
        raised = np.where(np.random.default_rng(0).random(chi.shape) < 0.1,
                          alpha * (base + chi), s.utility_w.T)
        for w in (np.ascontiguousarray(s.utility_w.T), raised):
            args = (chi, base, w, alpha, (chi + base).sum(axis=1),
                    np.full(chi.shape[0], s.num_es * s.solver.lambda_init),
                    s.shiftable_total, 0.01)
            live = _kernels.any_live(base, w, alpha)
            assert live == (w is raised)
            out, scratch = dirty(chi, 2)
            _kernels.te_phase(*args, out=out, scratch=scratch, live=live)
            peak = traced_peak(_kernels.te_phase, *args, out=out,
                               scratch=scratch, live=live)
            assert peak < 0.5 * chi.nbytes


def live_market():
    """A small generated market with w raised on some pairs: about a
    fifth sit exactly at alpha base == w, and about a quarter saturate at
    base demand plus 0.5 to 1.5 times their initial shiftable demand, so
    the utility slope pulls their demand during the run."""
    s = generate_scenario(GenerationParams(
        num_te=50, num_es=4, num_slots=6, seed=1))
    rng = np.random.default_rng(0)
    pick = rng.random(s.utility_w.shape)
    at_base = s.utility_alpha * s.base_demand
    above = s.utility_alpha * (
        s.base_demand
        + rng.uniform(0.5, 1.5, size=pick.shape) * s.initial_demand)
    s.utility_w = np.where(pick < 0.2, at_base,
                           np.where(pick < 0.45, above, s.utility_w))
    return s


class TestBundleBytes:
    def assert_same_bundle_as_reference_kernels(self, scenario, tmp_path,
                                                monkeypatch):
        result = run_dtoa(scenario)
        assert result.status == "converged"
        assert result.iterations_used > 1
        save_result(str(tmp_path / "kernels"), result, scenario)
        monkeypatch.setattr(_kernels, "project_rows_np", project_reference)
        monkeypatch.setattr(_kernels, "te_gradient", gradient_reference)
        monkeypatch.setattr(_kernels, "te_phase", te_phase_reference)
        monkeypatch.setattr(_kernels, "es_phase", es_phase_reference)
        save_result(str(tmp_path / "reference"), run_dtoa(scenario),
                    scenario)
        for name in ("result.json", "trace.csv", "demands.csv", "bids.csv"):
            assert ((tmp_path / "kernels" / name).read_bytes()
                    == (tmp_path / "reference" / name).read_bytes()), name

    def test_bundle_identical_to_reference_kernels(self, tmp_path,
                                                   monkeypatch):
        scenario = generate_scenario(GenerationParams(
            num_te=50, num_es=4, num_slots=6, seed=1))
        self.assert_same_bundle_as_reference_kernels(scenario, tmp_path,
                                                     monkeypatch)

    def test_live_pairs_bundle_identical_to_reference_kernels(
            self, tmp_path, monkeypatch):
        scenario = live_market()
        live = (scenario.utility_alpha * scenario.base_demand
                <= scenario.utility_w)
        assert 0 < live.sum() < live.size
        self.assert_same_bundle_as_reference_kernels(scenario, tmp_path,
                                                     monkeypatch)


class TestPhaseParity:
    def test_es_phase_reports_degenerate_slot(self):
        lam = np.zeros((3, 4))
        lam[:, :2] = 1.0
        out = _kernels.es_phase(lam, np.ones(4), np.full(3, 1e-4),
                                np.full(3, 1e-3), 0.05,
                                totals=lam.sum(axis=0))
        assert out[3] == 2

    def test_es_phase_zero_load_freezes_bids(self):
        lam = np.full((3, 2), 7.0)
        out = _kernels.es_phase(lam, np.array([0.0, 0.0]),
                                np.full(3, 1e-4), np.full(3, 1e-3),
                                0.05, totals=lam.sum(axis=0))
        np.testing.assert_array_equal(out[0], lam)
        np.testing.assert_array_equal(out[2], [0.0, 0.0])

    def test_surrogate_guard_matches_reference(self):
        # supplier 0's share is 10 of the load 12, beyond half of it, so
        # its direction is clamped to -price = -12 / 12
        lam = np.array([[10.0], [1.0], [1.0]])
        load = np.array([12.0])
        a2 = np.array([0.01, 0.01, 0.01])
        direction = _kernels.es_direction(lam, load, a2, np.zeros(3))
        assert direction[0, 0] == -1.0
        out = _kernels.es_phase(lam, load, a2, np.zeros(3), 1.0,
                                totals=lam.sum(axis=0))
        assert out[0][0, 0] == 9.0


class TestSupplierPhaseExact:
    """``es_phase`` and ``es_direction`` have the bits of the plain
    formulas, on every path: an ordinary step, a share at or beyond
    (1/2 - LEMMA1_MARGIN) of the load, a slot whose bids already sum to
    zero, a step that clips every bid of a slot to zero and a step that
    overflows."""

    @deterministic
    @given(seed=seeds, m=st.integers(2, 8), t=st.integers(1, 12),
           case=st.sampled_from(("plain", "guarded", "collapsed",
                                 "collapsing", "overflowing")))
    def test_matches_reference(self, seed, m, t, case):
        rng = np.random.default_rng(seed)
        scale = 1.0 if case == "overflowing" else 10.0 ** rng.uniform(0, 4)
        lam = rng.uniform(0.5, 5.0, size=(m, t)) * scale
        load = rng.uniform(1e3, 1e4, size=t)
        if case == "guarded":
            lam[0] *= 1e3
        price = load / lam.sum(axis=0)
        # marginal costs within a few prices and a step of at most a few
        # tenths of the smallest bid: an ordinary step keeps every bid
        # positive and finite
        a1 = rng.uniform(0.0, 1.0, size=m) * price.min()
        a2 = rng.uniform(0.0, 1.0, size=m) * price.min() / load.max()
        eta1 = rng.uniform(0.01, 0.1) * 0.5 * scale / price.max()
        if case == "collapsed":
            lam[:, rng.integers(t)] = 0.0
        elif case == "collapsing":
            a2, eta1 = np.full(m, 1e3), 1e12
        elif case == "overflowing":
            a2, a1, eta1 = np.full(m, 1e-12), np.zeros(m), 1e308
        totals = lam.sum(axis=0)
        want = es_phase_reference(lam, load, a2, a1, eta1, totals=totals)
        got = _kernels.es_phase(lam, load, a2, a1, eta1, totals=totals)
        for g, w in zip(got[:3], want[:3]):
            assert_same_bits(g, w)
        assert got[3] == want[3]
        if case in ("plain", "guarded"):
            assert want[3] == -1
        else:
            assert want[3] >= 0
            if case == "collapsing":
                assert want[1][want[3]] == 0.0
            elif case == "overflowing":
                assert want[1][want[3]] == np.inf
        if case != "collapsed":
            assert_same_bits(_kernels.es_direction(lam, load, a2, a1),
                             es_direction_reference(lam, load, a2, a1))
        if case == "guarded":
            f = lam * price
            assert (f[0] >= (0.5 - _kernels.LEMMA1_MARGIN) * load).all()
