"""Tests for the damping sweep, curve families, and the table file format."""

import numpy as np
import pytest

import oracles
from oracles import family_tfs
from trackbounds import (
    SecondOrderParams,
    Spec,
    WdTable,
    build_wd,
    family_response,
    format_wd_table,
    freq_response,
    make_grid,
    make_tf,
    overshoot,
    parse_wd_table,
    read_wd_table,
    scale_omega,
    zeta_min,
)


class TestSpec:
    def test_valid(self):
        s = Spec(0.15, 5.0, 30.0, 0.03, 5)
        assert s.wi == 5

    def test_overshoot_range(self):
        with pytest.raises(ValueError, match="overshoot"):
            Spec(1.2, 5.0, 30.0, 0.03, 5)
        with pytest.raises(ValueError, match="overshoot"):
            Spec(0.0, 5.0, 30.0, 0.03, 5)

    def test_time_ranges(self):
        with pytest.raises(ValueError, match="rise"):
            Spec(0.15, 0.0, 30.0, 0.03, 5)
        with pytest.raises(ValueError, match="settling"):
            Spec(0.15, 5.0, -1.0, 0.03, 5)

    def test_tolerance_range(self):
        with pytest.raises(ValueError, match="tolerance"):
            Spec(0.15, 5.0, 30.0, 1.0, 5)

    def test_multiplier_range(self):
        with pytest.raises(ValueError, match="multiplier"):
            Spec(0.15, 5.0, 30.0, 0.03, 0)
        with pytest.raises(ValueError, match="multiplier"):
            Spec(0.15, 5.0, 30.0, 0.03, 2.5)

    def test_rise_may_exceed_settling(self):
        Spec(0.15, 50.0, 30.0, 0.03, 5)


class TestWdTable:
    def test_requires_ascending_zeta(self):
        pairs = (SecondOrderParams(1.0, 0.6), SecondOrderParams(1.0, 0.5))
        with pytest.raises(ValueError, match="strictly increasing"):
            WdTable(pairs)

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            WdTable(())

    def test_accessors(self):
        pairs = (SecondOrderParams(2.0, 0.5), SecondOrderParams(3.0, 0.7))
        table = WdTable(pairs)
        assert table.zetas().tolist() == [0.5, 0.7]
        assert table.omega_ns().tolist() == [2.0, 3.0]


class TestBuildWd:
    def test_example_sweep(self, example_spec, example_wd_table):
        table = build_wd(example_spec, 0.05)
        assert len(table.pairs) == 10
        zmin = zeta_min(example_spec.mp)
        expected = zmin + 0.05 * np.arange(10)
        assert np.allclose(table.zetas(), expected, atol=1e-12)
        # the damping ratios recoverable from the published coefficients
        # agree with the sweep to about 3e-4
        assert np.allclose(table.zetas(), example_wd_table.zetas(), atol=1e-3)
        # published natural frequencies carry method noise of up to ~15%
        assert np.allclose(
            table.omega_ns(), example_wd_table.omega_ns(), rtol=0.15
        )

    def test_frequencies_match_oracle(self, example_spec):
        table = build_wd(example_spec, 0.05)
        for p in table.pairs:
            ref = oracles.oracle_omega_n(p.zeta, 5.0, 30.0, 0.03)
            assert abs(p.omega_n - ref) / ref < 1e-6

    def test_coarse_sweep_has_two_pairs(self, example_spec):
        table = build_wd(example_spec, 0.25)
        assert len(table.pairs) == 2
        assert abs(table.pairs[0].zeta - 0.517) < 1e-3
        assert abs(table.pairs[1].zeta - 0.767) < 1e-3

    def test_last_zeta_strictly_below_one(self, example_spec):
        table = build_wd(example_spec, 0.05)
        assert table.pairs[-1].zeta < 1.0
        assert table.pairs[0].zeta == zeta_min(example_spec.mp)

    def test_overshoot_bounded_family_wide(self, example_spec):
        table = build_wd(example_spec, 0.05)
        mps = [overshoot(p.zeta) for p in table.pairs]
        assert all(mp <= example_spec.mp + 1e-9 for mp in mps)
        assert abs(mps[0] - example_spec.mp) < 1e-9

    def test_step_validation(self, example_spec):
        with pytest.raises(ValueError):
            build_wd(example_spec, 0.0)
        with pytest.raises(ValueError):
            build_wd(example_spec, 0.5)  # exceeds 1 - zeta_min(0.15)


class TestFamilyTfs:
    def test_base_family_matches_fixture(self, example_wd_table):
        tfs = family_tfs(example_wd_table, 1)
        assert len(tfs) == 10
        first = make_tf(example_wd_table.pairs[0])
        assert np.allclose(tfs[0].num, first.num, rtol=1e-15)
        assert np.allclose(tfs[0].den, first.den, rtol=1e-15)
        assert np.allclose(tfs[0].num, [0.1137], rtol=5e-3)
        assert np.allclose(tfs[0].den, [1.0, 0.3486, 0.1137], rtol=5e-3)

    def test_fifth_family_of_first_member(self, example_wd_table):
        tfs = family_tfs(example_wd_table, 5)
        assert np.allclose(tfs[0].num, [2.843], rtol=5e-3)
        assert np.allclose(tfs[0].den, [1.0, 1.743, 2.843], rtol=5e-3)

    def test_single_pair_table(self):
        p = SecondOrderParams(1.3, 0.6)
        tfs = family_tfs(WdTable((p,)), 1)
        assert len(tfs) == 1
        ref = make_tf(p)
        assert np.array_equal(tfs[0].num, ref.num)
        assert np.array_equal(tfs[0].den, ref.den)

    def test_all_members_have_unit_dc_gain(self, example_wd_table):
        for i in (1, 3, 5):
            for tf in family_tfs(example_wd_table, i):
                assert tf.num[-1] == tf.den[-1]

    def test_scaling_commutes_with_construction(self, example_wd_table):
        scaled_pairs = tuple(
            scale_omega(p, 4) for p in example_wd_table.pairs
        )
        via_table = family_tfs(WdTable(scaled_pairs), 1)
        via_multiplier = family_tfs(example_wd_table, 4)
        for a, b in zip(via_table, via_multiplier):
            assert np.array_equal(a.num, b.num)
            assert np.array_equal(a.den, b.den)

    def test_multiplier_validation(self, example_wd_table):
        with pytest.raises(ValueError):
            family_tfs(example_wd_table, 0)


class TestFamilyResponse:
    @staticmethod
    def stacked(table, wi, grid):
        return np.array([[freq_response(tf, grid).values for tf in family_tfs(table, i)]
                         for i in range(1, wi + 1)])

    def test_worked_example_equals_member_responses(self, example_wd_table):
        grid = make_grid(0.01, 100.0, 200)
        got = family_response(example_wd_table, 5, grid.omegas)
        assert got.shape == (5, 10, 200)
        assert np.array_equal(got, self.stacked(example_wd_table, 5, grid))

    def test_wide_fine_family_equals_member_responses(self):
        table = build_wd(Spec(0.2, 3.0, 20.0, 0.02, 20), 0.01)
        grid = make_grid(1e-3, 1e3, 300)
        got = family_response(table, 20, grid.omegas)
        assert got.shape == (20, len(table), 300)
        assert np.array_equal(got, self.stacked(table, 20, grid))

    def test_multiplier_validation(self, example_wd_table):
        with pytest.raises(ValueError, match="multiplier"):
            family_response(example_wd_table, 0, [1.0])


class TestWdTableIO:
    def test_round_trip_exact(self, example_wd_table, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(format_wd_table(example_wd_table), encoding="ascii")
        back = read_wd_table(path)
        assert np.array_equal(back.zetas(), example_wd_table.zetas())
        assert np.array_equal(back.omega_ns(), example_wd_table.omega_ns())

    def test_built_table_round_trips_through_text(self, example_spec):
        # a freshly built table must serialize to plain parseable numbers
        table = build_wd(example_spec, 0.05)
        text = format_wd_table(table)
        assert "(" not in text
        back = parse_wd_table(text)
        assert np.array_equal(back.zetas(), table.zetas())
        assert np.array_equal(back.omega_ns(), table.omega_ns())

    def test_format_parse_round_trip(self):
        pairs = (SecondOrderParams(0.123456789012, 0.5),
                 SecondOrderParams(7.0, 0.987654321098))
        table = WdTable(pairs)
        back = parse_wd_table(format_wd_table(table))
        assert np.array_equal(back.zetas(), table.zetas())
        assert np.array_equal(back.omega_ns(), table.omega_ns())

    def test_header_line(self):
        text = format_wd_table(WdTable((SecondOrderParams(1.0, 0.5),)))
        assert text.splitlines()[0] == "zeta,omega_n"

    def test_fixture_file(self, example_wd_path):
        table = read_wd_table(example_wd_path)
        assert len(table.pairs) == 10
        zs = table.zetas()
        assert np.all(np.diff(zs) > 0)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_wd_table("0.5,1.0\n")

    def test_malformed_row_reports_line_number(self):
        text = "zeta,omega_n\n0.5,1.0\nnot-a-number,2.0\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_wd_table(text)

    def test_out_of_range_zeta_reports_line_number(self):
        text = "zeta,omega_n\n0.5,1.0\n1.5,2.0\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_wd_table(text)

    def test_wrong_column_count_rejected(self):
        text = "zeta,omega_n\n0.5,1.0,9.9\n"
        with pytest.raises(ValueError, match="line 2"):
            parse_wd_table(text)
