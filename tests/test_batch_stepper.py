"""The batched stepper against the single-trajectory reference in oracle.py,
its independence of the bookkeeping block length, its memory bound, and
property tests of the compiled segment plan and the row-wise cutoff."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsstab.constants import (
    FeedbackParams,
    build_schedule,
    feedback_params,
    radial_cutoff_rows,
    row_dot,
)
from nsstab import dynamics
from nsstab.dynamics import ControlLaw, packed_convection, segment_plan, simulate_batch, step_times
from nsstab.errors import BlowUpError
from nsstab.experiments import random_low_mode_state

import oracle
from conftest import uniform_plan

FLOAT_COLUMNS = ("norm_h", "lyapunov", "control_norm", "dissipation", "control_work")


def assert_matches_oracle(run, ref_trajectories):
    """Row r of the batch against the reference run r.

    Float columns agree within 1e-13 relative, element by element, with a
    floor of 1e-13 times the column's largest magnitude: near twice the
    cutoff radius the profile 1 - t^3 (10 - 15 t + 6 t^2) cancels, so there a
    one-ulp difference in the state moves a tiny control by a large
    relative amount.  Times, intervals and thresholds agree exactly.
    """
    for row, ref in enumerate(ref_trajectories):
        for name in FLOAT_COLUMNS:
            expected = getattr(ref, name)
            np.testing.assert_allclose(getattr(run, name)[:, row], expected, rtol=1e-13,
                                       atol=1e-13 * np.abs(expected).max(), err_msg=f"{name}, row {row}")
        traj = run.trajectory(row)
        assert np.array_equal(traj.times, ref.times)
        assert np.array_equal(traj.interval, ref.interval)
        assert np.array_equal(traj.threshold, ref.threshold, equal_nan=True)


def test_zero_law_matches_oracle(square16):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    y0 = np.array([random_low_mode_state(basis.n_modes, norm, seed=1) for norm in (0.3, 1e-3)])
    run = simulate_batch(y0, ControlLaw(), uniform_plan(0.3, 0.01, 1e-4), basis, tensor, gram, sample_stride=10)
    refs = [oracle.simulate(x, oracle.ZeroFeedback(), 0.3, 0.31, 1e-4, basis, tensor, gram,
                            sample_stride=10) for x in y0]
    assert_matches_oracle(run, refs)


@pytest.mark.parametrize("cutoff", [False, True])
def test_stationary_law_matches_oracle(square16, pack_rapid, cutoff):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    params = feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis)
    # the larger start holds the raw control above the radius at first, so
    # the cutoff acts on part of the run
    base = params.cutoff_radius / params.gain
    y0 = np.array([random_low_mode_state(basis.n_modes, scale * base, seed=2) for scale in (0.5, 3.0)])
    dt = 1e-5
    run = simulate_batch(y0, ControlLaw.stationary(params, cutoff=cutoff), uniform_plan(0.0, 0.02, dt),
                         basis, tensor, gram, sample_stride=4)
    refs = [oracle.simulate(x, oracle.ModalFeedback(params, cutoff=cutoff), 0.0, 0.02, dt,
                            basis, tensor, gram, sample_stride=4) for x in y0]
    assert_matches_oracle(run, refs)
    if cutoff:
        raw = params.gain * np.linalg.norm(refs[1].states[:, : params.n_active], axis=1)
        assert raw.max() > params.cutoff_radius


def test_periodic_law_with_offsets_matches_oracle(square16, pack_schedule):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    sched = build_schedule(2, pack_schedule, basis, 4)
    offsets = np.array([0.0, 0.1, 0.29])  # the last starts past one period
    y0 = random_low_mode_state(basis.n_modes, 1e-3, seed=3)
    dt = 2.0**-12
    run = simulate_batch(np.tile(y0, (3, 1)), ControlLaw.periodic(sched, cutoff=True),
                         uniform_plan(offsets, 0.5, dt), basis, tensor, gram)
    refs = [oracle.simulate(y0, oracle.ScheduledFeedback(sched, cutoff=True),
                            s, s + 0.5, dt, basis, tensor, gram) for s in offsets]
    assert_matches_oracle(run, refs)
    assert all((ref.interval == -1).any() and (ref.interval >= 0).any() for ref in refs)


def test_latched_law_matches_oracle(square16, pack_schedule):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    sched = build_schedule(1, pack_schedule, basis, 4)
    y0 = np.array([random_low_mode_state(basis.n_modes, norm, seed=6) for norm in (1e-3, 2e-3, 0.0)])
    thresholds = np.array([0.5e-3, 1e-30, 0.0])  # trips mid-run, never, at the start
    dt = 2.0**-11
    run = simulate_batch(y0, ControlLaw.periodic(sched), uniform_plan(0.0, sched.period, dt),
                         basis, tensor, gram, latch_norm=thresholds)
    refs = []
    for x, threshold, latch_time in zip(y0, thresholds, run.latch_time):
        law = oracle.LatchedFeedback(oracle.ScheduledFeedback(sched), threshold)
        refs.append(oracle.simulate(x, law, 0.0, sched.period, dt, basis, tensor, gram))
        assert math.isnan(latch_time) == (not law.latched)
        if law.latched:
            assert latch_time == law.latch_time
    assert_matches_oracle(run, refs)
    assert run.latch_time[2] == 0.0 and math.isnan(run.latch_time[1])


def chained_oracle(y0, feedback, times, sizes, basis, tensor, gram):
    """The oracle run piece by piece: piece p from times[p] to times[p + 1] in
    steps of sizes[p], each from the state the last ended on, with the energy
    integrals carried over and the shared end sample kept once."""
    pieces, x, carry = [], y0, np.zeros(2)
    for t0, t1, size in zip(times[:-1], times[1:], sizes):
        ref = oracle.simulate(x, feedback, t0, t1, size, basis, tensor, gram)
        ref.dissipation += carry[0]
        ref.control_work += carry[1]
        pieces.append(ref)
        x, carry = ref.states[-1], np.array([ref.dissipation[-1], ref.control_work[-1]])
    columns = {name: np.concatenate([getattr(ref, name)[: -1 if i < len(pieces) - 1 else None]
                                     for i, ref in enumerate(pieces)])
               for name in ("times", "states", "interval", "threshold", *FLOAT_COLUMNS)}
    return oracle.Trajectory(**columns)


def test_steps_per_piece_match_the_oracle_chained_piece_by_piece(square16, pack_schedule):
    """Rows with one step size per schedule piece, as null control steps them:
    row 0 with cutoff and coarse pieces first, row 1 with a latch and the
    reverse order of sizes, so both rows take 256 steps."""
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    sched = build_schedule(1, pack_schedule, basis, 4)
    times = np.append(sched.start_times, sched.period)
    lengths = np.diff(times)  # 1/4, 1/8, 1/16, 1/32, 1/64, 1/64
    counts = np.array([[64, 64, 32, 32, 32, 32], [32, 32, 32, 32, 64, 64]])
    sizes = lengths / counts
    assert np.all(counts.sum(axis=1) == 256)
    laws = [ControlLaw.periodic(sched, cutoff=True), ControlLaw.periodic(sched)]
    latch = np.array([0.0, 0.5e-3])
    feedbacks = [oracle.ScheduledFeedback(sched, cutoff=True),
                 oracle.LatchedFeedback(oracle.ScheduledFeedback(sched), latch[1])]
    y0 = np.array([random_low_mode_state(basis.n_modes, norm, seed=3) for norm in (0.1, 1e-3)])
    plans = [(times, n, row) for n, row in zip(counts, sizes)]
    run = simulate_batch(y0, laws, plans, basis, tensor, gram, latch_norm=latch)
    refs = [chained_oracle(x, feedback, times, row, basis, tensor, gram)
            for x, feedback, row in zip(y0, feedbacks, sizes)]
    assert_matches_oracle(run, refs)
    assert feedbacks[1].latched and run.latch_time[1] == feedbacks[1].latch_time
    assert np.array_equal(run.times[np.append(0, np.cumsum(counts[0])), 0], times)


def test_piece_ends_put_a_non_dyadic_piece_on_the_next_switch(square16, pack_schedule):
    """A row starting at 0.1 T takes 11 steps to the switch T/2, then interval
    1's 16 dyadic steps.  Summed, 0.05 + 11 (0.2/11) comes to one ulp past
    0.25; the plan's cut puts step 11 on 0.25 exactly, so it takes interval
    1's law.  A second row starts on the switch 0.375 and ends on the
    terminal start, so the rows take the same 27 steps."""
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    sched = build_schedule(1, pack_schedule, basis, 4)
    t1, t2, t3, t4 = sched.start_times[1:5]  # 0.25, 0.375, 0.4375, 0.46875
    plans = [([0.05, t1, t2], [11, 16], [(t1 - 0.05) / 11, 2.0**-7]),
             ([t2, t3, t4], [11, 16], [(t3 - t2) / 11, 2.0**-9])]
    assert 0.05 + 11 * plans[0][2][0] == np.nextafter(t1, 1.0)
    y0 = np.array([random_low_mode_state(basis.n_modes, 1e-3, seed=2)] * 2)
    run = simulate_batch(y0, ControlLaw.periodic(sched), plans, basis, tensor, gram)
    assert np.array_equal(run.times[[0, 11, 27]].T, [[0.05, t1, t2], [t2, t3, t4]])
    assert np.array_equal(run.segments[[10, 11, 27]].T, [[0, 1, 2], [2, 3, 4]])
    assert np.array_equal(run.times, step_times(plans)[0])
    # a piece end that its steps do not reach, cuts that do not match the pieces
    with pytest.raises(ValueError, match="not where its steps end"):
        step_times([(np.append(cuts[0], np.add(cuts[1:], 1e-3)), counts, sizes) for cuts, counts, sizes in plans])
    with pytest.raises(ValueError, match="P \\+ 1 cuts"):
        simulate_batch(y0, ControlLaw.periodic(sched), [(cuts[:-1], counts, sizes) for cuts, counts, sizes in plans],
                       basis, tensor, gram)


def test_blowup_raised_at_oracle_step_for_first_failing_row(square16):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    m = basis.n_modes
    exploder = FeedbackParams(threshold=1.0, n_active=m, gain=-1e4, weight=1.0, cutoff_radius=0.5)
    y0 = np.array([np.zeros(m), np.full(m, 1e-3)])
    with pytest.raises(BlowUpError) as batch:
        simulate_batch(y0, ControlLaw.stationary(exploder), uniform_plan(0.25, 0.5, 1e-3), basis, tensor, gram)
    with pytest.raises(BlowUpError) as reference:
        oracle.simulate(y0[1], oracle.ModalFeedback(exploder), 0.25, 0.75, 1e-3, basis, tensor, gram)
    assert batch.value.time == reference.value.time
    assert batch.value.max_abs == pytest.approx(reference.value.max_abs, rel=1e-13)


def test_mixed_laws_and_steps_in_one_batch_match_oracle(square16, pack_rapid, pack_schedule):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    m = basis.n_modes
    params = feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis)
    base = params.cutoff_radius / params.gain
    two, one = build_schedule(2, pack_schedule, basis, 4), build_schedule(1, pack_schedule, basis, 4)
    laws = [ControlLaw.stationary(params), ControlLaw.stationary(params, cutoff=True),
            ControlLaw.periodic(two, cutoff=True), ControlLaw.periodic(one)]
    latch = np.array([0.0, 0.0, 0.0, 0.5e-3])  # only the last row trips
    feedbacks = [oracle.ModalFeedback(params), oracle.ModalFeedback(params, cutoff=True),
                 oracle.ScheduledFeedback(two, cutoff=True),
                 oracle.LatchedFeedback(oracle.ScheduledFeedback(one), latch[3])]
    # the cutoff row starts with its raw control above the radius; the two
    # periodic rows cross the terminal regime into their next period
    y0 = np.array([random_low_mode_state(m, 0.5 * base, seed=2), random_low_mode_state(m, 3.0 * base, seed=2),
                   random_low_mode_state(m, 1e-3, seed=3), random_low_mode_state(m, 1e-3, seed=4)])
    t_start = np.array([0.0, 0.0, 0.13, 0.3])
    dt = np.array([1e-5, 2e-5, 2.0**-11, 2.0**-10])
    span = 256 * dt
    run = simulate_batch(y0, laws, uniform_plan(t_start, span, dt), basis, tensor, gram, sample_stride=4,
                         latch_norm=latch)
    refs = [oracle.simulate(x, feedback, s, s + width, step, basis, tensor, gram, sample_stride=4)
            for x, feedback, s, width, step in zip(y0, feedbacks, t_start, span, dt)]
    assert_matches_oracle(run, refs)
    assert feedbacks[3].latched and run.latch_time[3] == feedbacks[3].latch_time
    assert np.isnan(run.latch_time[:3]).all()
    for r in range(4):
        assert np.array_equal(run.trajectory(r).times, t_start[r] + 4 * np.arange(65) * dt[r])
    raw = params.gain * np.linalg.norm(refs[1].states[:, : params.n_active], axis=1)
    assert raw.max() > params.cutoff_radius
    assert all((ref.interval == -1).any() and (ref.interval >= 0).any() for ref in refs[2:])


def test_rows_of_one_law_are_bit_equal_across_a_batch(square16, pack_rapid, pack_schedule):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    params = feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis)
    a = ControlLaw.periodic(build_schedule(1, pack_schedule, basis, 4), cutoff=True)
    b = ControlLaw.stationary(params)
    y0 = random_low_mode_state(basis.n_modes, 1e-3, seed=8)
    dt = np.array([2.0**-10, 1e-5, 2.0**-10])
    run = simulate_batch(np.array([y0, 0.5 * y0, y0]), [a, b, a], uniform_plan([0.1, 0.0, 0.1], 64 * dt, dt),
                         basis, tensor, gram)
    for name in ("states", *FLOAT_COLUMNS):
        column = getattr(run, name)
        first, third = (column[0], column[2]) if name == "states" else (column[:, 0], column[:, 2])
        assert np.array_equal(first, third), name
    assert np.array_equal(run.segments[:, 0], run.segments[:, 2])
    assert not np.array_equal(run.states[0], run.states[1])


def test_equal_laws_built_apart_give_bit_equal_rows(square16, pack_rapid, pack_schedule):
    """Rows [A, B, A'] where A' is built like A but is another object: each row
    compiles its own law, so rows 0 and 2 agree bit for bit."""
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    a, a_again = (ControlLaw.periodic(build_schedule(1, pack_schedule, basis, 4), cutoff=True) for _ in range(2))
    assert a is not a_again and a.schedule is not a_again.schedule
    b = ControlLaw.stationary(feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis))
    y0 = random_low_mode_state(basis.n_modes, 1e-3, seed=8)
    dt = np.array([2.0**-10, 1e-5, 2.0**-10])
    run = simulate_batch(np.array([y0, 0.5 * y0, y0]), [a, b, a_again], uniform_plan([0.1, 0.0, 0.1], 64 * dt, dt),
                         basis, tensor, gram)
    for name in ("states", *FLOAT_COLUMNS, "segments"):
        column = getattr(run, name)
        first, third = (column[0], column[2]) if name == "states" else (column[:, 0], column[:, 2])
        assert np.array_equal(first, third), name
    assert np.array_equal(run.thresholds[0], run.thresholds[2], equal_nan=True)
    assert not np.array_equal(run.states[0], run.states[1])


def test_laws_with_different_segment_counts_match_oracle(square16, pack_rapid, pack_schedule):
    """The zero law (no segment), a stationary law (one) and a periodic law
    (n_max + 1 = 5) in one batch: the shorter tables are padded with zero-law
    rows, and TERMINAL finds one in every row."""
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    m = basis.n_modes
    params = feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis)
    sched = build_schedule(2, pack_schedule, basis, 4)
    laws = [ControlLaw(), ControlLaw.stationary(params), ControlLaw.periodic(sched)]
    feedbacks = [oracle.ZeroFeedback(), oracle.ModalFeedback(params), oracle.ScheduledFeedback(sched)]
    y0 = np.array([random_low_mode_state(m, norm, seed=5) for norm in (0.3, 0.5 * params.cutoff_radius / params.gain,
                                                                         1e-3)])
    t_start = np.array([0.3, 0.0, 0.13])  # the periodic row crosses the terminal regime
    dt = np.array([1e-4, 1e-5, 2.0**-11])
    span = 256 * dt
    run = simulate_batch(y0, laws, uniform_plan(t_start, span, dt), basis, tensor, gram, sample_stride=4)
    refs = [oracle.simulate(x, feedback, s, s + width, step, basis, tensor, gram, sample_stride=4)
            for x, feedback, s, width, step in zip(y0, feedbacks, t_start, span, dt)]
    assert_matches_oracle(run, refs)
    assert run.thresholds.shape == (3, sched.n_max + 2)
    assert np.isnan(run.thresholds[0]).all() and np.isnan(run.thresholds[1, 1:]).all()
    assert (refs[0].interval == -1).all() and (refs[1].interval == 0).all()
    assert (refs[2].interval == -1).any() and (refs[2].interval >= 0).any()


def test_health_of_all_rows_gathers_the_rows(square16, mixed_batch):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    batch = mixed_batch
    run = simulate_batch(batch["y0"], batch["laws"], uniform_plan(batch["t_start"], 128 * batch["dt"], batch["dt"]),
                         basis, tensor, gram, sample_stride=4, latch_norm=batch["latch"])
    whole, rows = run.health(), [run.health(r) for r in range(4)]
    assert whole["steps"] == sum(row["steps"] for row in rows) == 4 * 128
    assert whole["max_energy_defect"] == max(row["max_energy_defect"] for row in rows)
    assert whole["max_energy_defect"] > 0.0
    for health in (whole, *rows):
        assert health["stepping_s"] == run.seconds > 0.0
        assert health["us_per_step"] == run.seconds / (4 * 128) * 1e6


def test_batch_rejects_mismatched_steps_and_law_counts(square16, pack_rapid):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    law = ControlLaw.stationary(feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis))
    y0 = np.zeros((2, basis.n_modes))
    plan = uniform_plan(0.0, 0.01, 1e-3)
    with pytest.raises(ValueError, match="same number of steps"):
        simulate_batch(y0, law, uniform_plan(0.0, 0.01, [1e-3, 2e-3]), basis, tensor, gram)
    with pytest.raises(ValueError, match="same number of steps"):
        simulate_batch(y0, law, uniform_plan(0.0, [0.01, 0.02], 1e-3), basis, tensor, gram)
    with pytest.raises(ValueError, match="3 laws for 2 rows"):
        simulate_batch(y0, [law] * 3, plan, basis, tensor, gram)
    with pytest.raises(ValueError, match="1 laws for 2 rows"):
        simulate_batch(y0, [law], plan, basis, tensor, gram)
    # one plan per batch row, each piece's steps ending on its cut
    with pytest.raises(ValueError, match="3 step plans for 2 rows"):
        simulate_batch(y0, law, [plan] * 3, basis, tensor, gram)
    with pytest.raises(ValueError, match="1 step plans for 2 rows"):
        simulate_batch(y0, law, [plan], basis, tensor, gram)
    with pytest.raises(ValueError, match="not where its steps end"):
        simulate_batch(y0, law, ([0.0, 0.01], [11], [1e-3]), basis, tensor, gram)
    for counts, sizes in (([0], [1e-3]), ([10], [0.0]), ([-10], [-1e-3])):
        with pytest.raises(ValueError, match="must be positive"):
            simulate_batch(y0, law, ([0.0, 0.01], counts, sizes), basis, tensor, gram)


BATCH_COLUMNS = ("segments", *FLOAT_COLUMNS, "states", "latch_time")

#: block lengths of the deferred bookkeeping: every step its own block, a few, the default
BLOCKS = (1, 3, 64)


def run_per_block(monkeypatch, *args, **kwargs):
    """The same simulate_batch call at each block length of BLOCKS."""
    runs = []
    for block in BLOCKS:
        monkeypatch.setattr(dynamics, "_BLOCK", block)
        runs.append(simulate_batch(*args, **kwargs))
    return runs


def assert_same_across_blocks(runs):
    for run, block in zip(runs[1:], BLOCKS[1:]):
        for name in BATCH_COLUMNS:
            assert np.array_equal(getattr(run, name), getattr(runs[0], name), equal_nan=True), (name, block)


@pytest.fixture(scope="module")
def mixed_batch(square16, pack_rapid, pack_schedule):
    """Four rows with four laws and four dt: stationary with and without cutoff
    (the cutoff row starts above its radius), periodic with cutoff, and
    periodic with a latch at half the initial norm."""
    m = square16["basis"].n_modes
    params = feedback_params(float(square16["basis"].eigenvalues[3]), pack_rapid, square16["basis"])
    base = params.cutoff_radius / params.gain
    two, one = (build_schedule(n0, pack_schedule, square16["basis"], 4) for n0 in (2, 1))
    laws = [ControlLaw.stationary(params), ControlLaw.stationary(params, cutoff=True),
            ControlLaw.periodic(two, cutoff=True), ControlLaw.periodic(one)]
    y0 = np.array([random_low_mode_state(m, 0.5 * base, seed=2), random_low_mode_state(m, 3.0 * base, seed=2),
                   random_low_mode_state(m, 1e-3, seed=3), random_low_mode_state(m, 1e-3, seed=4)])
    return {"laws": laws, "y0": y0, "t_start": np.array([0.0, 0.0, 0.13, 0.3]),
            "dt": np.array([1e-5, 2e-5, 2.0**-11, 2.0**-10]), "latch": np.array([0.0, 0.0, 0.0, 0.5e-3])}


# fewer steps than a block, whole blocks, one step either side of them, and
# sample strides that do not divide the block
@pytest.mark.parametrize("n_steps, stride", [(2, 1), (50, 1), (63, 1), (64, 1), (65, 5), (128, 4), (129, 3),
                                             (130, 5)])
def test_columns_do_not_depend_on_the_block_length(square16, mixed_batch, monkeypatch, n_steps, stride):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    batch = mixed_batch
    plan = uniform_plan(batch["t_start"], n_steps * batch["dt"], batch["dt"])
    runs = run_per_block(monkeypatch, batch["y0"], batch["laws"], plan, basis, tensor, gram, sample_stride=stride,
                         latch_norm=batch["latch"])
    assert_same_across_blocks(runs)
    assert runs[0].norm_h.shape == (n_steps // stride + 1, 4)


def test_latch_at_block_edges_does_not_depend_on_the_block_length(square16, pack_schedule, monkeypatch):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    law = ControlLaw.periodic(build_schedule(1, pack_schedule, basis, 4))
    y0 = np.tile(random_low_mode_state(basis.n_modes, 1e-3, seed=6), (3, 1))
    dt = 2.0**-11
    free = simulate_batch(y0, law, uniform_plan(0.0, 130 * dt, dt), basis, tensor, gram)
    # the norm falls along the run, so a latch at the norm of step k trips at
    # step k: the last step of the first 64-step block, the first of the
    # second, and one row that never trips
    trips = (63, 64)
    latch = np.array([free.norm_h[trips[0], 0], free.norm_h[trips[1], 1], 0.0])
    assert np.all(np.diff(free.norm_h[:, 0]) < 0)
    runs = run_per_block(monkeypatch, y0, law, uniform_plan(0.0, 130 * dt, dt), basis, tensor, gram, latch_norm=latch)
    assert_same_across_blocks(runs)
    assert runs[0].latch_time[:2].tolist() == [k * dt for k in trips] and math.isnan(runs[0].latch_time[2])
    for row, k in enumerate(trips):
        assert runs[0].control_norm[k, row] == 0.0 < runs[0].control_norm[k - 1, row]


def test_blowup_on_a_block_end_does_not_depend_on_the_block_length(square16, monkeypatch):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    m = basis.n_modes
    # the guard is relative to the initial norm, so the gain sets the trip step:
    # row 1 grows by BLOWUP_GUARD at step 63, the last of the first block
    exploder = FeedbackParams(threshold=1.0, n_active=m, gain=-815.0, weight=1.0, cutoff_radius=0.5)
    y0 = np.array([np.zeros(m), np.full(m, 1e-7)])
    errors = []
    for block in BLOCKS:
        monkeypatch.setattr(dynamics, "_BLOCK", block)
        with pytest.raises(BlowUpError) as caught:
            simulate_batch(y0, ControlLaw.stationary(exploder), uniform_plan(0.25, 0.5, 1e-3), basis, tensor, gram)
        errors.append((caught.value.time, caught.value.row, caught.value.max_abs))
    assert errors == [errors[0]] * len(BLOCKS)
    assert errors[0][:2] == (0.25 + 64 * 1e-3, 1)


def test_stepping_memory_is_bounded_by_the_block(square16, pack_schedule):
    """Beyond the arrays it returns, a run allocates a fixed number of
    block-sized buffers, whatever its length: from 512 to 2048 steps that
    overhead grows by at most 2 of them, where a temporary the size of the
    state history would add n_steps / _BLOCK, 24 more; and at 2048 steps it
    is at most 32 of them (measured: about 14 at every length)."""
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    b, m = 12, basis.n_modes
    law = ControlLaw.periodic(build_schedule(1, pack_schedule, basis, 4), cutoff=True)
    y0 = np.array([random_low_mode_state(m, 1e-3 * (1 + r), seed=r) for r in range(b)])
    block = dynamics._BLOCK * b * m * 8

    def overhead(n_steps):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = simulate_batch(y0, law, uniform_plan(np.linspace(0.0, 0.4, b), 0.5, 0.5 / n_steps), basis, tensor,
                                 gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.health(0)["steps"] == n_steps
        returned = sum(getattr(run, name).nbytes for name in ("times", *BATCH_COLUMNS))
        return (peak - before - returned) / block

    short, long = overhead(512), overhead(2048)
    assert long - short <= 2, (short, long)
    assert long <= 32, long


def test_packed_convection_matches_full_contraction_and_is_energy_neutral(square32_wide):
    tensor = square32_wide["tensor"]
    m = tensor.shape[0]
    convection = packed_convection(tensor, 5)
    rng = np.random.default_rng(11)
    for scale in (1e-6, 1e-2, 1.0, 10.0):
        x = scale * rng.standard_normal((5, m))
        packed = convection(x)
        full = np.array([np.outer(row, row).ravel() @ tensor.reshape(m * m, m) for row in x])
        np.testing.assert_allclose(packed, full, rtol=1e-13, atol=1e-13 * np.abs(full).max())
        # the tensor is skew in (j, k), so x . N(x) vanishes up to rounding
        assert np.all(np.abs(row_dot(x, packed)) <= 1e-14 * np.abs(x * packed).sum(axis=1))


@pytest.mark.parametrize("cutoff", [False, True])
def test_stationary_law_at_64_modes_matches_oracle(square32_wide, pack_schedule, cutoff):
    basis, tensor, gram = square32_wide["basis"], square32_wide["tensor"], square32_wide["gram"]
    params = feedback_params(float(basis.eigenvalues[3]), pack_schedule, basis)
    # at unit norm the convection term moves the norm by about 5%, and the raw
    # control starts past twice the radius, so the cutoff zeroes it at first
    y0 = random_low_mode_state(basis.n_modes, 1.0, seed=2)[None]
    dt = 1e-3
    run = simulate_batch(y0, ControlLaw.stationary(params, cutoff=cutoff), uniform_plan(0.0, 0.3, dt),
                         basis, tensor, gram, sample_stride=4)
    ref = oracle.simulate(y0[0], oracle.ModalFeedback(params, cutoff=cutoff), 0.0, 0.3, dt,
                          basis, tensor, gram, sample_stride=4)
    assert_matches_oracle(run, [ref])
    if cutoff:
        raw = params.gain * np.linalg.norm(ref.states[:, : params.n_active], axis=1)
        assert raw.max() > 2 * params.cutoff_radius and raw.min() < params.cutoff_radius


def test_periodic_law_at_64_modes_with_offsets_matches_oracle(square32_wide, pack_schedule):
    basis, tensor, gram = square32_wide["basis"], square32_wide["tensor"], square32_wide["gram"]
    sched = build_schedule(2, pack_schedule, basis, 4)
    offsets = np.array([0.13, 0.2, 0.48])  # each crosses the terminal regime; the last starts past one period
    y0 = random_low_mode_state(basis.n_modes, 0.1, seed=3)
    dt = 2.0**-11
    run = simulate_batch(np.tile(y0, (3, 1)), ControlLaw.periodic(sched), uniform_plan(offsets, 0.125, dt), basis,
                         tensor, gram)
    refs = [oracle.simulate(y0, oracle.ScheduledFeedback(sched), s, s + 0.125, dt, basis, tensor, gram)
            for s in offsets]
    assert_matches_oracle(run, refs)
    assert all((ref.interval == -1).any() and (ref.interval >= 0).any() for ref in refs)
    assert run.control_norm.max() > 0.0


@pytest.fixture(scope="module")
def schedule16(square16, pack_schedule):
    return build_schedule(1, pack_schedule, square16["basis"], 4)


def oracle_interval(schedule, t):
    return oracle.ScheduledFeedback(schedule).interval_at(float(t))


@settings(max_examples=60, deadline=None)
@given(
    offsets=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=4),
    dt=st.one_of(st.integers(4, 12).map(lambda k: 2.0**-k), st.floats(1e-4, 0.05)),
    n_steps=st.integers(1, 64),
)
def test_plan_matches_scalar_reduction(schedule16, offsets, dt, n_steps):
    """One segment per step, the one at its start time t_start + k*dt, which
    both evaluations of the step take (no second segment at t + dt), and the
    segment of the end time last."""
    law = ControlLaw.periodic(schedule16)
    b = len(offsets)
    times, _ = step_times([([s, s + n_steps * dt], [n_steps], [dt]) for s in offsets])
    seg = segment_plan([law] * b, times)
    assert times.shape == seg.shape == (n_steps + 1, b)
    for r, s in enumerate(offsets):
        for k in range(n_steps + 1):
            t = s + k * dt
            assert times[k, r] == t
            assert seg[k, r] == oracle_interval(schedule16, t)


@settings(max_examples=100, deadline=None)
@given(
    t_start=st.sampled_from([0.0, 0.125, 0.375, -1.5]),
    pieces=st.lists(st.tuples(st.integers(1, 9), st.integers(2, 12)), min_size=1, max_size=6),
)
def test_step_times_start_each_piece_where_the_last_ended(t_start, pieces):
    """A row plan of pieces (n_p steps of size 2**-e_p) steps from
    cut_p + j*dt_p, where cut_{p+1} ends piece p; on these dyadic sizes every
    time is exact, which the sum of exact fractions checks."""
    from fractions import Fraction

    counts, sizes = [n for n, _ in pieces], [2.0**-e for _, e in pieces]
    cuts = [t_start] + [t_start + sum(m * 2.0**-f for m, f in pieces[: p + 1]) for p in range(len(pieces))]
    times, piece = step_times([(cuts, counts, sizes)])
    assert np.array_equal(piece[:, 0], np.repeat(np.arange(len(pieces)), counts))
    expected = [Fraction(t_start)]
    for size in np.repeat(sizes, counts):
        expected.append(expected[-1] + Fraction(size))
    assert [Fraction(t) for t in times[:, 0]] == expected


@settings(max_examples=200, deadline=None)
@given(
    boundary=st.integers(0, 6),  # interval starts 0..n_max+1, then the end of the period
    periods=st.integers(-3, 3),
    ulps=st.integers(-2, 2),
)
def test_segment_at_dyadic_boundaries(schedule16, boundary, periods, ulps):
    law = ControlLaw.periodic(schedule16)
    edges = np.append(schedule16.start_times, schedule16.period)
    t = edges[boundary] + periods * schedule16.period
    for _ in range(abs(ulps)):
        t = np.nextafter(t, np.inf if ulps > 0 else -np.inf)
    assert law.segment_at(t) == oracle_interval(schedule16, t)
    assert law.segment_at(np.array([t]))[0] == law.segment_at(t)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 6),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    ratios=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 1.99, 2.0, 2.5]) | st.floats(0.0, 3.0),
                    min_size=6, max_size=6),
    ulps=st.integers(-1, 1),
)
def test_cutoff_rows_equal_radial_cutoff(rows, m, seed, ratios, ulps):
    rng = np.random.default_rng(seed)
    radii = rng.uniform(1e-3, 0.5, rows)
    c = rng.standard_normal((rows, m))
    norms = np.linalg.norm(c, axis=1)
    target = np.array(ratios[:rows]) * radii
    c *= np.where(norms > 0, target / np.where(norms > 0, norms, 1.0), 0.0)[:, None]
    c = np.nextafter(c, c * (1 + ulps))  # one ulp out, none, or one ulp in
    out = radial_cutoff_rows(c, radii)
    for r in range(rows):
        assert np.array_equal(out[r], oracle.radial_cutoff(c[r], radii[r]))
        assert np.linalg.norm(out[r]) <= min(1.0, np.linalg.norm(c[r]))
