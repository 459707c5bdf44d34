import collections
import dataclasses
import math

import numpy as np
import pytest

from chunkfair import (
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    ScenarioParams,
    UserProfile,
    band_partition,
    ber_gap,
    build_layout,
    build_scenario,
    frequency_response,
    multicell_sa,
    path_loss_db,
    place_users,
    run_experiment,
    substream,
)
from chunkfair.assign import build_grid, chunk_rates, run_sa
from chunkfair.channel import STREAM_CHANNEL
from chunkfair.multicell import _group_tables, _sinr_block

from oracles import generate_taps_direct


def small_params(**kw):
    defaults = dict(
        n_subcarriers=128,
        chunk_size=4,
        n_users=4,
        tap_counts=(4, 8, 4, 8),
        rate_weights=(1.0, 1.0, 1.0, 1.0),
    )
    defaults.update(kw)
    return ScenarioParams(**defaults)


# ---------------------------------------------------------------- layout

def test_layout_tier_distances():
    layout = build_layout(1.0, 2.0)
    d = layout.bs_distance_km
    assert d[0] == 0.0
    assert np.allclose(d[1:7], 2.0)
    tier2 = np.sort(d[7:])
    assert np.allclose(tier2[:6], 2.0 * math.sqrt(3.0))
    assert np.allclose(tier2[6:], 4.0)


def test_layout_co_band_cells_are_the_mid_edge_six():
    layout = build_layout(1.0, 2.0)
    plan = band_partition(512, 0.5, 1.0, layout)
    # 1-based cell numbers of cell 1's co-band interferers
    assert (plan.co_band_cells + 1).tolist() == [8, 10, 12, 14, 16, 18]
    assert np.allclose(layout.bs_distance_km[plan.co_band_cells], 2.0 * math.sqrt(3.0))


def test_layout_adjacent_cells_never_share_edge_band():
    layout = build_layout(1.0, 2.0)
    centers = layout.centers
    for i in range(19):
        for j in range(i + 1, 19):
            gap = np.hypot(*(centers[i] - centers[j]))
            if abs(gap - 2.0) < 1e-9:  # adjacent
                assert layout.reuse3_color[i] != layout.reuse3_color[j]


# ---------------------------------------------------------------- path loss

def test_path_loss_values():
    assert abs(path_loss_db(1.0) - 128.1) < 1e-12
    assert abs(path_loss_db(2.0) - 139.4187278369657) < 1e-10
    assert abs(path_loss_db(4.0) - 150.7374556739314) < 1e-10
    with pytest.raises(ConfigError):
        path_loss_db(0.0)


# ---------------------------------------------------------------- placement

def test_placement_radial_distribution():
    rng = substream(99, 1, 0)
    d = place_users(100_000, 1.0, rng)
    assert d.max() <= 1.0
    frac = np.mean(d <= 0.5)
    assert abs(frac - 0.25) < 0.01


def test_placement_rejects_fewer_than_one_user():
    with pytest.raises(ConfigError, match="n_users must be >= 1"):
        place_users(0, 1.0, substream(99, 1, 0))


def test_placement_group_tags_follow_tau():
    all_centre = build_scenario(small_params(centre_radius_fraction=1.0), 1, 0)
    assert all_centre.is_centre.all()
    all_edge = build_scenario(small_params(centre_radius_fraction=0.0), 1, 0)
    assert not all_edge.is_centre.any()


# ---------------------------------------------------------------- bands

def test_band_partition_table_values():
    layout = build_layout(1.0, 2.0)
    plan = band_partition(512, 0.5, 1.0, layout)
    assert plan.n_cc == 128
    assert plan.n_ce == 128
    assert plan.centre_band.tolist() == list(range(128))
    assert plan.edge_band.tolist() == list(range(128, 256))  # cell 1 has reuse-3 colour 0
    assert np.intersect1d(plan.centre_band, plan.edge_band).size == 0
    assert plan.n_cc + 3 * plan.n_ce <= 512


def test_band_partition_degenerate_tau_zero():
    layout = build_layout(1.0, 2.0)
    plan = band_partition(512, 0.0, 1.0, layout)
    assert plan.n_cc == 0
    assert plan.n_ce == 512 // 3


def test_band_partition_area_consistency():
    layout = build_layout(1.0, 2.0)
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        plan = band_partition(512, tau, 1.0, layout)
        assert abs(plan.n_cc - 512 * tau**2) <= 1.0


def test_band_partition_rejects_bad_inputs():
    layout = build_layout(1.0, 2.0)
    with pytest.raises(ConfigError):
        band_partition(512, 1.5, 1.0, layout)


def test_scenario_params_reject_chunk_size_outside_one_to_n():
    for chunk_size in (0, 129):
        with pytest.raises(ConfigError, match=r"chunk_size must be in \[1, 128\]"):
            small_params(n_subcarriers=128, chunk_size=chunk_size)
    assert small_params(n_subcarriers=128, chunk_size=128).chunk_size == 128


def test_scenario_params_reject_a_list_of_the_wrong_length():
    for lists in ({"tap_counts": (4, 8, 4)}, {"rate_weights": (1.0,) * 5}):
        with pytest.raises(ConfigError, match="one entry per user"):
            small_params(**lists)


@pytest.mark.parametrize("taps", [(0, 4, 4, 4), (400, 4, 4, 4), (4.5, 4, 4, 4)])
def test_scenario_params_reject_a_tap_count_that_is_not_an_integer_in_one_to_n(taps):
    with pytest.raises(ConfigError, match=r"tap_counts must be integers in \[1, 128\]"):
        small_params(n_subcarriers=128, tap_counts=taps)
    assert small_params(n_subcarriers=128, tap_counts=(1, 128, 4, 4)).tap_counts == (1, 128, 4, 4)


def test_scenario_params_reject_no_users():
    with pytest.raises(ConfigError, match="n_users must be >= 1"):
        small_params(n_users=0, tap_counts=(), rate_weights=())


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_scenario_params_reject_a_weight_that_is_not_positive_and_finite(bad):
    with pytest.raises(ConfigError, match="positive finite rate weights"):
        small_params(rate_weights=(1.0, bad, 1.0, 1.0))


# ---------------------------------------------------------------- gap factor

def test_ber_gap_value():
    assert abs(ber_gap(1e-6) - 0.122889650386) < 1e-9
    with pytest.raises(ConfigError):
        ber_gap(0.25)
    with pytest.raises(ConfigError):
        ber_gap(0.0)


# ---------------------------------------------------------------- SINR

def centre_sinr_by_hand(sc, user, subcarrier):
    p = sc.params.total_power_watts / sc.params.n_subcarriers
    desired = (
        10.0 ** (-0.1 * path_loss_db(sc.distance_km[user]))
        * sc.gain_sq[user, 0, subcarrier]
        * p
    )
    interference = 0.0
    for cell in range(1, 19):
        att = 10.0 ** (-0.1 * path_loss_db(sc.layout.bs_distance_km[cell]))
        interference += att * sc.gain_sq[user, cell, subcarrier] * p
    return desired / (sc.params.noise_power_watts + interference)


def edge_sinr_by_hand(sc, user, subcarrier):
    p = sc.params.total_power_watts / sc.params.n_subcarriers
    desired = (
        10.0 ** (-0.1 * path_loss_db(sc.distance_km[user]))
        * sc.gain_sq[user, 0, subcarrier]
        * p
    )
    interference = 0.0
    for cell in sc.plan.co_band_cells:
        att = 10.0 ** (-0.1 * path_loss_db(sc.layout.bs_distance_km[cell]))
        interference += att * sc.gain_sq[user, cell, subcarrier] * p
    return desired / (sc.params.noise_power_watts + interference)


def sinr_centre(sc, user, subcarrier):
    """One entry of the centre group's SINR block: all 18 other cells interfere."""
    return float(_sinr_block(sc, np.array([user]), np.array([subcarrier]), np.arange(1, 19))[0, 0])


def sinr_edge(sc, user, subcarrier):
    """One entry of the edge group's SINR block: the six co-band cells interfere."""
    return float(
        _sinr_block(sc, np.array([user]), np.array([subcarrier]), sc.plan.co_band_cells)[0, 0]
    )


def group_rate(sc, user, chunk):
    """Entry of the rate table SA reads for the user's group."""
    for _, users, table, _ in _group_tables(sc):
        if user in users:
            return float(table[int(np.flatnonzero(users == user)[0]), chunk])
    raise AssertionError(f"user {user} is in no group")


def test_sinr_matches_hand_evaluation():
    sc = build_scenario(small_params(n_subcarriers=512, chunk_size=4), 3, 1)
    centre = sc.centre_users
    edge = sc.edge_users
    if centre.size:
        u = int(centre[0])
        n = int(sc.plan.centre_band[5])
        assert abs(sinr_centre(sc, u, n) - centre_sinr_by_hand(sc, u, n)) \
            <= 1e-12 * centre_sinr_by_hand(sc, u, n)
    if edge.size:
        u = int(edge[0])
        n = int(sc.plan.edge_band[3])
        assert abs(sinr_edge(sc, u, n) - edge_sinr_by_hand(sc, u, n)) \
            <= 1e-12 * edge_sinr_by_hand(sc, u, n)


def test_sinr_zero_interference_reduces_to_snr():
    sc = build_scenario(small_params(), 5, 0)
    edge = sc.edge_users
    if edge.size == 0:
        pytest.skip("no edge user in this draw")
    u = int(edge[0])
    sc.gain_sq[u, 1:, :] = 0.0  # silence every interferer
    n = int(sc.plan.edge_band[0])
    p = sc.params.total_power_watts / sc.params.n_subcarriers
    expected = (
        10.0 ** (-0.1 * path_loss_db(sc.distance_km[u]))
        * sc.gain_sq[u, 0, n] * p / sc.params.noise_power_watts
    )
    assert abs(sinr_edge(sc, u, n) - expected) <= 1e-12 * expected


def test_sinr_band_and_group_mismatch_rejected():
    # Each group's table pairs its own users with its own band and interferers.
    sc = build_scenario(small_params(n_subcarriers=512, chunk_size=4), 3, 1)
    assert sc.centre_users.size and sc.edge_users.size
    expected = (
        ("centre", sc.centre_users, sc.plan.centre_band, np.arange(1, 19)),
        ("edge", sc.edge_users, sc.plan.edge_band, sc.plan.co_band_cells),
    )
    for (name, users, table, grid), (want_name, want_users, band, cells) in zip(
        _group_tables(sc), expected
    ):
        assert name == want_name and np.array_equal(users, want_users)
        assert grid.n_subcarriers == band.size
        sinr = sc.lam * _sinr_block(sc, want_users, band, cells)
        assert np.array_equal(table, chunk_rates(sinr, grid, 1.0, n_total=512))


def test_sinr_monotone_in_interference():
    sc = build_scenario(small_params(), 7, 2)
    edge = sc.edge_users
    if edge.size == 0:
        pytest.skip("no edge user in this draw")
    u = int(edge[0])
    n = int(sc.plan.edge_band[1])
    before = sinr_edge(sc, u, n)
    sc.gain_sq[u, sc.plan.co_band_cells[0], n] *= 10.0
    assert sinr_edge(sc, u, n) <= before


def test_interferer_set_sizes():
    sc = build_scenario(small_params(), 11, 0)
    assert sc.plan.co_band_cells.size == 6


# ---------------------------------------------------------------- rates

def test_effective_rate_unit_argument_gives_chunk_share():
    # log2(1 + 1) = 1 on every subcarrier of a full chunk of size L
    grid = build_grid(16, 4)
    table = chunk_rates(np.ones((1, 16)), grid, 1.0, n_total=512)
    assert np.allclose(table, 4.0 / 512.0)


def test_effective_chunk_rate_matches_scalar_sinr_loop():
    sc = build_scenario(small_params(n_subcarriers=512, chunk_size=4), 13, 0)
    edge = sc.edge_users
    if edge.size == 0:
        pytest.skip("no edge user in this draw")
    u = int(edge[0])
    band = sc.plan.edge_band
    chunk = 2
    subs = band[chunk * 4:(chunk + 1) * 4]
    direct = sum(
        np.log2(1.0 + sc.lam * edge_sinr_by_hand(sc, u, int(n))) for n in subs
    ) / 512.0
    assert abs(group_rate(sc, u, chunk) - direct) <= 1e-12 * direct


def test_lambda_strictly_degrades_rate():
    lam = ber_gap(1e-6)
    sinr = 3.7
    assert np.log2(1.0 + lam * sinr) < np.log2(1.0 + sinr)


# ---------------------------------------------------------------- group SA

def test_multicell_sa_partitions_bands():
    sc = build_scenario(small_params(n_subcarriers=512, chunk_size=4, n_users=8,
                                     tap_counts=(4,) * 8,
                                     rate_weights=(1.0,) * 8), 21, 4)
    rates = multicell_sa(sc, "proposed")
    assert np.all(rates >= 0)
    # each group's chunks go to exactly one of its users, who earns those chunks' rates
    for _, users, table, grid in _group_tables(sc):
        if table is None:
            continue
        assignment = run_sa("proposed", table, sc.weights[users], grid)
        assert len(assignment.owners) == grid.n_chunks
        assert set(assignment.owners) <= set(range(len(users)))
        owners = np.asarray(assignment.owners)
        for row, user in enumerate(users):
            assert rates[user] == table[row, owners == row].sum()
    assert np.array_equal(np.sort(np.concatenate([sc.centre_users, sc.edge_users])),
                          np.arange(8))


def test_multicell_sa_single_centre_user_takes_all_chunks():
    sc = build_scenario(small_params(centre_radius_fraction=1.0, n_users=1, tap_counts=(4,),
                                     rate_weights=(1.0,)), 31, 0)
    rates = multicell_sa(sc, "proposed")
    (_, centre, table, grid), (_, edge, edge_table, _) = _group_tables(sc)
    assert centre.tolist() == [0] and edge.size == 0 and edge_table is None
    assert grid.n_chunks == sc.plan.n_cc // 4 == table.shape[1]
    assert rates[0] == table[0].sum()


def test_multicell_sa_infeasible_when_chunks_short():
    params = small_params(n_subcarriers=16, chunk_size=4, centre_radius_fraction=0.0,
                          n_users=8, tap_counts=(4,) * 8, rate_weights=(1.0,) * 8)
    sc = build_scenario(params, 3, 0)
    # edge band has floor(16/3) = 5 subcarriers -> 1 chunk for 8 edge users
    with pytest.raises(InfeasibleError):
        multicell_sa(sc, "proposed")


def test_reuse1_dominated_per_subcarrier():
    sc = build_scenario(small_params(n_subcarriers=512, chunk_size=4), 17, 3)
    edge = sc.edge_users
    if edge.size == 0:
        pytest.skip("no edge user in this draw")
    u = int(edge[0])
    band = sc.plan.edge_band
    for n in band[:10]:
        ffr = edge_sinr_by_hand(sc, u, int(n))
        reuse1 = centre_sinr_by_hand(sc, u, int(n))  # 18 interferers
        assert reuse1 <= ffr


def test_sinr_vanishes_as_noise_grows():
    quiet = build_scenario(small_params(), 19, 0)
    loud = build_scenario(small_params(noise_density_dbm_hz=-60.0), 19, 0)
    edge = quiet.edge_users
    if edge.size == 0:
        pytest.skip("no edge user in this draw")
    u = int(edge[0])
    n = int(quiet.plan.edge_band[0])
    assert sinr_edge(loud, u, n) < 1e-6 * sinr_edge(quiet, u, n)
    assert sinr_edge(loud, u, n) < 1e-6


def test_zero_desired_signal_gives_zero_rate():
    sc = build_scenario(small_params(), 29, 0)
    edge = sc.edge_users
    if edge.size == 0:
        pytest.skip("no edge user in this draw")
    u = int(edge[0])
    sc.gain_sq[u, 0, :] = 0.0
    assert group_rate(sc, u, 0) == 0.0


def test_reuse1_equals_ffr_without_interference():
    # the two models differ only in the edge interferer set
    sc = build_scenario(small_params(n_subcarriers=512, chunk_size=4), 37, 2)
    sc.gain_sq[:, 1:, :] = 0.0
    ffr = multicell_sa(sc, "proposed")
    reuse1 = multicell_sa(sc, "proposed", ffr=False)
    assert np.allclose(ffr, reuse1)


def test_reuse1_deterministic_and_nonnegative():
    params = small_params(n_subcarriers=512, chunk_size=4)
    a = multicell_sa(build_scenario(params, 23, 5), "proposed", ffr=False)
    b = multicell_sa(build_scenario(params, 23, 5), "proposed", ffr=False)
    assert np.array_equal(a, b)
    assert np.all(a >= 0)


def test_scenario_determinism():
    a = build_scenario(small_params(), 77, 9)
    b = build_scenario(small_params(), 77, 9)
    assert np.array_equal(a.gain_sq, b.gain_sq)
    assert np.array_equal(a.distance_km, b.distance_km)


# ---------------------------------------------------------------- one draw, many chunk sizes

def _view(scenario, chunk_size):
    """The same drop under another chunk size, made as the harness makes its views."""
    return dataclasses.replace(scenario, params=dataclasses.replace(scenario.params, chunk_size=chunk_size))


def _rates_or_error(fn, scenario):
    try:
        return fn(scenario)
    except InfeasibleError as exc:
        return str(exc)


def test_chunk_size_views_equal_fresh_draws():
    base = small_params(n_subcarriers=128, chunk_size=1)
    drawn = build_scenario(base, 43, 6)
    for chunk_size in (1, 2, 3, 5, 7, 8, 12):
        view = _view(drawn, chunk_size)
        fresh = build_scenario(dataclasses.replace(base, chunk_size=chunk_size), 43, 6)
        assert view.params == fresh.params
        assert view.gain_sq is drawn.gain_sq
        assert np.array_equal(view.gain_sq, fresh.gain_sq)
        assert np.array_equal(view.distance_km, fresh.distance_km)
        assert np.array_equal(view.is_centre, fresh.is_centre)
        assert view.plan is drawn.plan
        assert (view.plan.n_cc, view.plan.n_ce) == (fresh.plan.n_cc, fresh.plan.n_ce)
        for scheme in ("proposed", "shen", "static"):
            for fn in (lambda sc: multicell_sa(sc, scheme),
                       lambda sc: multicell_sa(sc, scheme, ffr=False)):
                got, want = _rates_or_error(fn, view), _rates_or_error(fn, fresh)
                assert type(got) is type(want)
                assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_chunk_size_views_share_sinr_blocks(monkeypatch):
    from chunkfair import multicell

    blocks = []
    sinr_block = multicell._sinr_block

    def counting(scenario, users, subcarriers, interferers):
        blocks.append((users.size, subcarriers.size, interferers.size))
        return sinr_block(scenario, users, subcarriers, interferers)

    monkeypatch.setattr(multicell, "_sinr_block", counting)
    drawn = build_scenario(small_params(n_subcarriers=256, chunk_size=1, n_users=6,
                                        tap_counts=(4,) * 6, rate_weights=(1.0,) * 6), 5, 4)
    assert drawn.centre_users.size and drawn.edge_users.size
    for chunk_size in (1, 2, 4, 8):
        view = _view(drawn, chunk_size)
        multicell_sa(view)
        multicell_sa(view, ffr=False)
    # Centre band, FFR edge band and no-FFR edge band, each once per draw.
    centre, edge = drawn.centre_users.size, drawn.edge_users.size
    n_cc, n_ce = drawn.plan.n_cc, drawn.plan.n_ce
    assert sorted(blocks) == sorted([(centre, n_cc, 18), (edge, n_ce, 6), (edge, n_ce, 18)])


def test_group_tables_built_once_per_interferer_set():
    sc = build_scenario(small_params(), 47, 1)
    ffr = _group_tables(sc)
    assert _group_tables(sc) is ffr
    no_ffr = _group_tables(sc, ffr=False)
    assert no_ffr is not ffr and _group_tables(sc, ffr=False) is no_ffr
    for _, _, table, _ in ffr:
        if table is not None:
            assert not table.flags.writeable
    view = _view(sc, 8)
    assert view.plan is sc.plan
    coarse = _group_tables(view)
    assert coarse is not ffr and _group_tables(view) is coarse
    for (_, _, table, grid), (_, _, coarse_table, coarse_grid) in zip(ffr, coarse):
        if table is not None:
            assert (grid.chunk_size, coarse_grid.chunk_size) == (4, 8)
            assert coarse_table.shape[1] == coarse_grid.n_chunks < table.shape[1]
    # every view reads one memo: a fresh view at the draw's chunk size finds its tables
    assert _group_tables(_view(view, 4)) is ffr


# ---------------------------------------------------------------- links drawn on first read

@pytest.mark.parametrize("scenario", ["multi-cell", "multi-cell-no-FFR"])
def test_run_draws_each_link_a_model_reads_once(monkeypatch, scenario):
    from chunkfair import multicell

    draws = collections.Counter()
    stream = multicell.substream

    def counting(master_seed, *path):
        if path[0] == STREAM_CHANNEL:
            draws[path[1:]] += 1
        return stream(master_seed, *path)

    monkeypatch.setattr(multicell, "substream", counting)
    config = ExperimentConfig.from_dict({
        "scenario": scenario,
        "n_subcarriers": 256,
        "n_users": 8,
        "tap_counts": [4, 8, 16, 32, 4, 8, 16, 32],
        "rate_weights": [1.0] * 8,
        "trials": 3,
        "seed": 24680,
        "sa_schemes": ["proposed", "shen", "static"],
        "pa_schemes": ["uniform"],
        "chunk_sizes": [1, 4, 8],
    })
    run_experiment(config)
    got = draws.copy()
    want = collections.Counter()
    for trial in range(config.trials):
        drop = build_scenario(config.chunk_params[0], config.seed, trial)
        for k in range(config.n_users):
            ffr_edge = scenario == "multi-cell" and not drop.is_centre[k]
            cells = [0, *drop.plan.co_band_cells] if ffr_edge else range(19)
            want.update((trial, k, int(cell)) for cell in cells)
    assert got == want
    if scenario == "multi-cell":  # some edge users, so a full draw would not match
        assert sum(want.values()) < config.trials * 152


def _row_by_row_gains(params, master_seed, trial):
    """|H|^2 of every link, each drawn and transformed on its own."""
    gains = np.empty((params.n_users, 19, params.n_subcarriers))
    for k, taps in enumerate(params.tap_counts):
        for cell in range(19):
            rng = substream(master_seed, STREAM_CHANNEL, trial, k, cell)
            h = frequency_response(generate_taps_direct(UserProfile(taps), rng), params.n_subcarriers)
            gains[k, cell] = h.real**2 + h.imag**2
    return gains


@pytest.mark.parametrize("seed", [3, 17, 43, 101, 24680])
def test_links_drawn_in_two_batches_equal_a_full_draw(seed):
    params = small_params(n_subcarriers=256, chunk_size=1, n_users=6, tap_counts=(4, 8, 16, 32, 4, 8),
                          rate_weights=(1.0,) * 6)
    drop = build_scenario(params, seed, 2)
    edge = drop.edge_users
    assert edge.size
    multicell_sa(drop)
    assert drop._drawn[edge].sum(axis=1).tolist() == [7] * edge.size
    for chunk_size in (1, 2, 4, 8):
        view = _view(drop, chunk_size)
        multicell_sa(view)
        multicell_sa(view, ffr=False)  # the edge users' other 12 links, in a second batch
    assert drop._drawn.all()
    assert np.array_equal(drop.gain_sq, build_scenario(params, seed, 2).gain_sq)
    assert np.array_equal(drop.gain_sq, _row_by_row_gains(params, seed, 2))
