import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetwords import cli, series
from offsetwords.core import count_offset_words, multinomial, weak_compositions
from offsetwords.oracle import oracle_count
from offsetwords.asymptotics import bell_B, bell_B_via_power, normalized_bessel_series
from offsetwords.parseval import offsets_with_norm_at_most, parseval_lhs, parseval_rhs_series
from offsetwords.errors import BudgetExceededError
from offsetwords.quadrature import fourier_coefficient_numeric, spectral_density_eval
from offsetwords.series import (
    LaurentTable,
    XSeries,
    check_table_size,
    fourier_coefficient_series,
    lattice_points,
    ogf_w,
    spectral_series,
)
from offsetwords.verify import verify_determinantal

F = Fraction


class TestXSeries:
    def test_construction_and_truncation(self):
        s = XSeries.from_list([1, 2, 3], order=5)
        assert s.order == 5
        assert s.coeffs == (F(1), F(2), F(3), F(0), F(0), F(0))
        assert XSeries.from_list([1, 2, 3], order=1).coeffs == (F(1), F(2))
        assert XSeries.zero(3).is_zero()
        with pytest.raises(ValueError):
            XSeries(())
        with pytest.raises(TypeError):
            XSeries((0.5,))

    def test_arithmetic_respects_min_order(self):
        a = XSeries.from_list([1, 1, 1, 1])
        b = XSeries.from_list([1, 2], order=1)
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert (a * b).coeffs == (F(1), F(3))
        assert (a - b).coeffs == (F(0), F(-1))

    def test_multiplication_and_powers(self):
        geom = XSeries.from_list([1] * 6)  # 1/(1-x)
        sq = geom * geom
        assert sq.coeffs == tuple(F(k + 1) for k in range(6))
        assert (geom**3).coeffs == tuple(F(math.comb(k + 2, 2)) for k in range(6))
        assert (geom**0).coeffs == (F(1),) + (F(0),) * 5

    def test_log_exp_roundtrip(self):
        rng = random.Random(5)
        coeffs = [F(1)] + [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)]
        s = XSeries.from_list(coeffs)
        assert s.log().exp().coeffs == s.coeffs
        with pytest.raises(ValueError):
            XSeries.from_list([2, 1]).log()
        with pytest.raises(ValueError):
            XSeries.from_list([1, 1]).exp()

    def test_log_of_geometric_series(self):
        geom = XSeries.from_list([1] * 7)
        expected = [F(0)] + [F(1, k) for k in range(1, 7)]  # -log(1-x)
        assert geom.log().coeffs == tuple(expected)

    def test_evaluation(self):
        s = XSeries.from_list([1, 3, 15])
        assert s.eval_fraction(F(1, 10)) == F(1) + F(3, 10) + F(15, 100)
        assert abs(s.eval_float(0.1) - 1.45) < 1e-15

    def test_json_roundtrip_and_determinism(self):
        s = XSeries.from_list([F(1), F(-3, 7), F(0), F(22)])
        data = s.to_json_dict()
        assert XSeries.from_json_dict(data).coeffs == s.coeffs
        assert s.to_json() == s.to_json()
        parsed = json.loads(s.to_json())
        assert parsed["coeffs"][1] == ["-3", "7"]


def test_fourier_coefficient_series_examples():
    s = fourier_coefficient_series((1, 0), 2, 1, 5)
    assert s.coeffs == (F(0), F(1), F(0), F(3), F(0), F(10))
    assert fourier_coefficient_series((1, 0), 2, 2, 5).is_zero()
    s = fourier_coefficient_series((0, 0, 0), 3, 1, 4)
    assert s.coeffs == (F(1), F(0), F(3), F(0), F(15))


def test_ogf_examples():
    assert ogf_w((0, 0, 0), 3).coeffs == (F(1), F(3), F(15), F(93))
    assert ogf_w((1, 0), 2).coeffs == (F(1), F(3), F(10))
    assert ogf_w((9,), 3).coeffs == (F(1), F(1), F(1), F(1))


def test_spectral_series_small_entries():
    # d=1, r=1: entry at (m) has a single 1 at each admissible power
    table = spectral_series(1, 1, 6)
    assert table.entry((0,)).coeffs == (F(1), F(0), F(1), F(0), F(1), F(0), F(1))
    assert table.entry((3,)).coeffs == (F(0), F(0), F(0), F(1), F(0), F(1), F(0))
    # d=2: the (0,0) entry counts abelian squares by length; cross-check the
    # x^2 coefficient against the brute-force oracle
    table2 = spectral_series(2, 1, 4)
    assert table2.entry((0, 0)).coeffs[2] == oracle_count(1, (0, 0)) == 2
    # r=2 kills exponents that 2 does not divide
    t_r2 = spectral_series(2, 2, 4)
    assert t_r2.entry((1, 0)).is_zero()
    assert (1, 0) not in t_r2.entries
    assert t_r2.entry((2, 0)).coeffs == table2.entry((1, 0)).coeffs


def pair_sum_table(d, r, truncation):
    """The MacMahon pair sum by definition: multinomial(kappa) * multinomial(kappa')
    at x^(|kappa| + |kappa'|) and exponent r * (kappa - kappa')."""
    layers = [{nu: multinomial(nu) for nu in weak_compositions(k, d)} for k in range(truncation + 1)]
    table = {}
    for n in range(truncation + 1):
        for k in range(n + 1):
            for kappa, a in layers[k].items():
                for kappa_p, b in layers[n - k].items():
                    eta = tuple(r * (x - y) for x, y in zip(kappa, kappa_p))
                    table.setdefault(eta, [0] * (truncation + 1))[n] += a * b
    return table


@pytest.mark.parametrize("d,truncation", [(1, 20), (2, 10), (3, 7), (4, 6), (5, 4), (6, 3)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_spectral_series_matches_pair_sum(d, r, truncation):
    expected = pair_sum_table(d, r, truncation)
    table = spectral_series(d, r, truncation)
    assert set(table.entries) == set(expected)
    for eta, row in expected.items():
        assert table.entries[eta].coeffs == tuple(F(c) for c in row), eta


@pytest.fixture
def fresh_plans():
    """Empty plan and gatherer caches, so the test sees a cold build whatever
    ran before it."""
    series._build_plan.cache_clear()
    series._scatters.cache_clear()


def test_table_cells_are_bounded_before_building(monkeypatch, fresh_plans):
    # lattice_points(d, T) is the table's exponent count, so its size is known up front
    for d, truncation in ((1, 9), (2, 6), (3, 5), (4, 4)):
        points = lattice_points(d, truncation)
        assert points == len(spectral_series(d, 1, truncation).entries)
        assert points == sum(1 for _ in offsets_with_norm_at_most(d, truncation))
    check_table_size(3, 40)  # 3.9M cells
    check_table_size(6, 12)  # 7.0M cells
    with pytest.raises(BudgetExceededError, match="cells"):
        check_table_size(8, 24)
    # the walk consults the cap before its first step, the enumeration of the
    # ball; d=2, T=10 has 221 * (11 + 2) = 2,873 cells, T=9 has 2,172
    monkeypatch.setattr(series, "_TABLE_CELL_CAP", 2500)
    with monkeypatch.context() as patched:
        patched.setattr(series, "_sorted_ball", lambda *args: pytest.fail("walk started past the cap"))
        with pytest.raises(BudgetExceededError):
            spectral_series(2, 1, 10)
        with pytest.raises(BudgetExceededError):
            parseval_rhs_series(2, 5)
    assert series._build_plan.cache_info().currsize == 4  # only the admitted tables above
    assert len(spectral_series(2, 1, 9).entries) == lattice_points(2, 9)


def test_key_ints_count_toward_the_cap(monkeypatch, capsys):
    # at d = 1000, T = 2 the 2,002,001 exponents and 3 orders are 6.0M cells,
    # but the keys alone are 2.0G ints: refused before the ball is enumerated
    monkeypatch.setattr(series, "_sorted_ball", lambda *args: pytest.fail("walk started past the cap"))
    with pytest.raises(BudgetExceededError, match="2008007003 cells"):
        spectral_series(1000, 1, 2)
    assert cli.main(["spectral-table", "--d", "1000", "--trunc", "2"]) == 3
    assert "above the fixed limit" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), truncation=st.integers(0, 8))
def test_orbits_partition_the_ball(d, truncation):
    plan = series._orbit_plan(d, truncation)
    reps, layers = plan.reps, series._orbit_walk(plan)
    orbits = [series._orbit_members(d, rep) for rep in reps]
    ball = list(offsets_with_norm_at_most(d, truncation))
    # every member lies in the orbit of its representative, and no exponent
    # falls in two orbits or in none
    for rep, orbit in zip(reps, orbits):
        assert len(set(orbit)) == len(orbit) == series._orbit_size(rep)
        for eta in orbit:
            assert min(tuple(sorted(eta)), tuple(sorted(-c for c in eta))) == rep
    assert sorted(eta for orbit in orbits for eta in orbit) == sorted(ball)
    assert sum(map(series._orbit_size, reps)) == lattice_points(d, truncation) == len(ball)
    # layer n lists the orbits of norm <= n, which come first
    norms = [sum(map(abs, rep)) for rep in reps]
    assert norms == sorted(norms)
    assert [len(layer) for layer in layers] == [sum(c <= n for c in norms) for n in range(truncation + 1)]


def test_orbit_work_guard(monkeypatch, fresh_plans):
    # the walk fills one slot per orbit, and the gatherers expand each orbit
    # once into exactly its members: a return to d! arrangements per orbit,
    # or to one row per exponent, changes these counts
    orbits = {(2, 24): 313, (3, 16): 576, (4, 10): 296, (6, 8): 207, (10, 4): 21}
    for (d, truncation), count in orbits.items():
        plan = series._orbit_plan(d, truncation)
        assert len(plan.reps) == len(series._orbit_walk(plan)[-1]) == count, (d, truncation)
    series._scatters.cache_clear()  # the counts below are those of the cold build
    generated = []
    orbit_members = series._orbit_members

    def counting_members(d, rep):
        out = orbit_members(d, rep)
        generated.append(len(out))
        return out

    arranged = []
    distinct_permutations = series._distinct_permutations

    def counting_permutations(values):
        arranged.append(len(values))
        return distinct_permutations(values)

    monkeypatch.setattr(series, "_orbit_members", counting_members)
    monkeypatch.setattr(series, "_distinct_permutations", counting_permutations)
    table = spectral_series(10, 1, 4)
    assert len(generated) == 21
    assert sum(generated) == len(table.entries) == lattice_points(10, 4) == 8361
    # only nonzero entries are arranged (at most T = 4 of them), never the zeros
    assert arranged and max(arranged) <= 4


def _walk_outputs(d, truncation):
    """What the walk's readers return at (d, T).  Tables are compared whole:
    equal entries of ints write the same to_json(), which takes far longer
    than the table itself at d = 5, T = 10."""
    layers = series._orbit_walk(series._orbit_plan(d, truncation))
    tables = [spectral_series(d, r, truncation) for r in (1, 2)]
    return layers, tables, parseval_rhs_series(d, truncation // 2).coeffs


@settings(max_examples=25, deadline=None)
@given(requests=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10)), min_size=1, max_size=5))
def test_cached_plans_are_exact(requests):
    # the caches serve the drawn requests in their order, so a plan or a
    # gatherer list is built cold or read warm, at this T or another one;
    # each answer equals one from cold caches
    series._build_plan.cache_clear()
    series._scatters.cache_clear()
    for d, truncation in requests:
        got = _walk_outputs(d, truncation)
        series._build_plan.cache_clear()
        series._scatters.cache_clear()
        assert got == _walk_outputs(d, truncation), (d, truncation)


def test_plan_is_built_once_per_pair(monkeypatch, fresh_plans):
    balls, arranged = [], []
    sorted_ball, distinct_permutations = series._sorted_ball, series._distinct_permutations
    monkeypatch.setattr(series, "_sorted_ball", lambda d, radius: balls.append((d, radius)) or sorted_ball(d, radius))
    monkeypatch.setattr(series, "_distinct_permutations", lambda v: arranged.append(v) or distinct_permutations(v))
    spectral_series(3, 1, 8)
    assert balls == [(3, 8)] and arranged
    # the same (d, T) reads the plan: no ball; the same patterns scaled by r
    # or met at a smaller T read the gatherers: no new arrangement
    arranged.clear()
    spectral_series(3, 2, 8)
    parseval_rhs_series(3, 4)
    spectral_series(3, 3, 5)
    assert balls == [(3, 8), (3, 5)] and not arranged
    # one ball per distinct (d, T), none on a repeat
    parseval_rhs_series(3, 5)
    spectral_series(3, 1, 10)
    series._orbit_plan(3, 8)
    series._orbit_plan(3, 0)
    series._orbit_plan(3, 0)
    assert balls == [(3, 8), (3, 5), (3, 10), (3, 0)]
    # one gatherer list per (d, pattern of repeats), built when a table first
    # meets the pattern and read by every later table, at any r and T
    spectral_series(4, 1, 6)
    spectral_series(4, 2, 6)
    spectral_series(4, 1, 4)
    met = {
        (d, tuple(map(side.index, side)))
        for d, truncation in ((3, 10), (4, 6))
        for rep in series._orbit_plan(d, truncation).reps
        for nonzero in [tuple(c for c in rep if c)]
        for side in (nonzero, series._negated(nonzero))
    }
    info = series._scatters.cache_info()
    assert info.misses == info.currsize == len(met) and info.hits
    assert series._build_plan.cache_info().maxsize == series._PLAN_CAP >= 31


def test_mutated_layers_do_not_reach_the_next_walk(fresh_plans):
    # the plan is made of tuples and every walk returns fresh layer lists, so
    # a caller that edits them, as the odd-parity test does, changes nothing
    want = _walk_outputs(2, 6)
    plan = series._orbit_plan(2, 6)
    layers = series._orbit_walk(plan)
    layers[1][plan.reps.index((0, 0))] += 1
    layers[3].clear()
    layers.append([7])
    assert _walk_outputs(2, 6) == want
    assert all(isinstance(field, tuple) for field in plan)


def test_non_integer_arguments_are_refused():
    for args in ((2, 1.5, 2), (2.0, 1, 2), (2, 1, 2.0), (2, "1", 2)):
        with pytest.raises(TypeError):
            spectral_series(*args)
    with pytest.raises(TypeError):
        fourier_coefficient_series((1, 0), 2, 1.5, 4)
    with pytest.raises(TypeError):
        fourier_coefficient_series((1, 0), 2, 1, 4.0)
    with pytest.raises(TypeError):
        parseval_rhs_series(2.0, 2)
    # the numeric and Bell routes: a fractional r or d defines no function on the torus
    with pytest.raises(TypeError):
        fourier_coefficient_numeric((1, 0), 0.1, r=1.5)
    with pytest.raises(TypeError):
        spectral_density_eval(0.1, [0.0, 1.0], r=1.5)
    for route in (bell_B, bell_B_via_power):
        with pytest.raises(TypeError):
            route(2, 1, 2.5)


def test_extraction_consistency(suite_runs):
    # d <= 3, |xi| <= 3, T = 8: the series suite's row
    suite_runs.check("series", "table entries match count-built series")


def test_support_parity_and_norm_bound():
    table = spectral_series(3, 1, 6)
    for exp, series in table.entries.items():
        norm = sum(abs(c) for c in exp)
        assert norm <= 6
        for k, c in enumerate(series.coeffs):
            if c != 0:
                assert k >= norm and (k - norm) % 2 == 0


def test_mass_check(suite_runs):
    # d <= 3, T = 8: the series suite's row
    suite_runs.check("series", "mass: coefficients at x^k")


def test_r_divisibility_of_series(suite_runs):
    # d <= 3, r in {2, 3}, |xi| <= 4, table and series: the series suite's row
    suite_runs.check("series", "r-divisibility")


def test_by_length_series_indexes_counts():
    for xi in ((0, 0), (1, -1), (2, 0, -1)):
        norm = sum(map(abs, xi))
        series = fourier_coefficient_series(xi, len(xi), 1, 9)
        for n in range((9 - norm) // 2 + 1):
            assert series[2 * n + norm] == count_offset_words(n, xi)


def test_table_json_schema_and_determinism():
    table = spectral_series(2, 1, 3)
    data = table.to_json_dict()
    assert set(data) == {"d", "entries"}
    exps = [tuple(e["exp"]) for e in data["entries"]]
    assert exps == sorted(exps)
    assert table.to_json() == spectral_series(2, 1, 3).to_json()
    rebuilt = XSeries.from_json_dict(data["entries"][0]["series"])
    assert rebuilt.coeffs == table.entries[exps[0]].coeffs
    # an orbit's members share one row, converted once; each entry still
    # writes the series at its own exponent
    assert all(e["series"] == table.entries[tuple(e["exp"])].to_json_dict() for e in data["entries"])


def test_counts_stay_int_and_divisions_give_fraction():
    def kinds(s):
        return {type(c) for c in s.coeffs}

    assert kinds(ogf_w((1, 0), 6)) == {int}
    assert kinds(fourier_coefficient_series((1, 0), 2, 1, 6)) == {int}
    assert kinds(fourier_coefficient_series((1, 0), 2, 2, 6)) == {int}
    assert kinds(parseval_lhs(2, 4)) == kinds(parseval_rhs_series(2, 4)) == {int}
    for d, r, truncation in ((1, 1, 9), (2, 2, 6), (3, 1, 5)):
        table = spectral_series(d, r, truncation)
        assert set().union(*map(kinds, table.entries.values())) == {int}
        entries = {
            tuple(e["exp"]): XSeries.from_json_dict(e["series"])
            for e in json.loads(table.to_json())["entries"]
        }
        assert LaurentTable(d, r, truncation, entries) == table
        assert set().union(*map(kinds, entries.values())) == {int}  # the round trip keeps ints
    geom = XSeries.from_list([1] * 6)
    assert kinds(geom) == {int}
    assert kinds(geom.log()) == kinds(geom.log().exp()) == {Fraction}
    # read back, a denominator of 1 gives an int and any other a Fraction
    log_back = XSeries.from_json_dict(geom.log().to_json_dict())
    assert log_back == geom.log() and [type(c) for c in log_back.coeffs[:3]] == [int, int, Fraction]
    assert kinds(normalized_bessel_series(1, 5)) == {Fraction}
    with pytest.raises(TypeError):
        geom.scale(0.5)
    with pytest.raises(TypeError):
        geom.eval_fraction(0.5)


def test_table_entry_dimension_mismatch():
    table = spectral_series(2, 1, 3)
    with pytest.raises(ValueError):
        table.entry((1, 0, 0))
    assert isinstance(table, LaurentTable)


def test_verify_determinantal_examples():
    assert verify_determinantal(0, [1.0, -1.0], 1)
    assert verify_determinantal(F(1, 3), [complex(math.cos(1), math.sin(1))], 4)
    assert verify_determinantal(F(1, 5), [1, 1j, -1], 1)
    with pytest.raises(ValueError):
        verify_determinantal(F(1, 5), [0.5, 1.0], 1)


def test_verify_determinantal_random():
    rng = random.Random(31)
    for _ in range(50):
        d = rng.randint(1, 6)
        z = [complex(math.cos(t), math.sin(t)) for t in (rng.uniform(0, 2 * math.pi) for _ in range(d))]
        assert verify_determinantal(F(rng.randint(-9, 9), 10), z, rng.randint(1, 3))
