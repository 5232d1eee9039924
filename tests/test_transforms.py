"""Generalized binomial transform, window sums, and symbolic minor forms."""

import random
from math import comb

import pytest

from helpers import gaussian_binomial, naive_minor_form
from tripos.algebra import QPoly
from tripos.errors import SequenceRangeError
from tripos.properties import (
    HOLDS,
    INAPPLICABLE,
    PolySeq,
    is_strongly_q_log_convex,
)
from tripos.transforms import (
    BilinearForm,
    bisnomial_transform,
    check_preservation,
    transform_minor_form,
    window_sum,
)

def constant_family(count):
    return PolySeq(tuple(QPoly([1]) for _ in range(count)))


def binomial_power_family(count):
    return PolySeq(tuple(QPoly([1, 1]) ** k for k in range(count)))


def gaussian_family(count):
    return PolySeq(tuple(gaussian_binomial(n, 2) for n in range(2, count + 2)))


class TestBisnomialTransform:
    def test_constants_give_powers(self):
        out = bisnomial_transform(constant_family(21), 2, 10)
        assert [p.coeffs for p in out.polys] == [(3 ** n,) for n in range(11)]

    def test_q_powers_give_expansion(self):
        ps = PolySeq(tuple(QPoly([0] * k + [1]) for k in range(21)))
        out = bisnomial_transform(ps, 2, 10)
        for n in range(11):
            assert out.polys[n] == QPoly([1, 1, 1]) ** n

    def test_first_transformed_element(self):
        f = [QPoly([1]), QPoly([0, 1]), QPoly([0, 0, 1])]
        out = bisnomial_transform(PolySeq(tuple(f)), 2, 1)
        assert out.polys[0] == f[0]
        assert out.polys[1] == f[0] + f[1] + f[2]

    def test_s1_equals_binomial_transform(self):
        rng = random.Random(3)
        polys = [QPoly([rng.randint(0, 5) for _ in range(3)]) for _ in range(21)]
        out = bisnomial_transform(PolySeq(tuple(polys)), 1, 20)
        for n in range(21):
            direct = QPoly.ZERO
            for k in range(n + 1):
                direct = direct + comb(n, k) * polys[k]
            assert out.polys[n] == direct

    def test_too_short_names_requirement(self):
        with pytest.raises(SequenceRangeError, match="21"):
            bisnomial_transform(constant_family(5), 2, 10)

    def test_negative_n_max_raises(self):
        assert len(bisnomial_transform(constant_family(5), 2, 0)) == 1
        for n_max in (-1, -2):
            with pytest.raises(ValueError, match="n_max"):
                bisnomial_transform(constant_family(5), 2, n_max)


class TestWindowSum:
    def test_basic(self):
        out = window_sum(constant_family(3), 1)
        assert [p.coeffs for p in out.polys] == [(2,), (2,)]

    def test_definition(self):
        f = [QPoly([1]), QPoly([0, 1]), QPoly([0, 0, 1]), QPoly([0, 0, 0, 1])]
        out = window_sum(PolySeq(tuple(f)), 2)
        assert len(out) == 2
        assert out.polys[0] == f[0] + f[1] + f[2]
        assert out.polys[1] == f[1] + f[2] + f[3]

    def test_too_short(self):
        with pytest.raises(SequenceRangeError):
            window_sum(constant_family(2), 2)

    def test_preserves_strong_q_log_convexity(self, preset_rowgens):
        for name, ps in preset_rowgens.items():
            window = PolySeq(ps.polys[:13])
            assert is_strongly_q_log_convex(window).holds, name
            for s in (1, 2):
                out = window_sum(window, s)
                assert is_strongly_q_log_convex(out).holds, (name, s)


class TestMinorForm:
    def test_base_case_display(self):
        form = transform_minor_form(1, 1, 2)
        assert form.as_map() == {
            (0, 2): 1, (1, 1): -1, (0, 3): 2, (1, 2): -2, (0, 4): 1, (2, 2): -1,
        }

    def test_binomial_base_case(self):
        assert transform_minor_form(1, 1, 1).as_map() == {(0, 2): 1, (1, 1): -1}

    def test_against_expansion(self):
        for s in (1, 2, 3):
            for n in range(1, 5):
                for m in range(n, 5):
                    form = transform_minor_form(n, m, s)
                    assert form.as_map() == naive_minor_form(n, m, s), (s, n, m)

    def test_serialization_sorted(self):
        text = transform_minor_form(1, 2, 2).serialize()
        lines = [tuple(int(x) for x in ln.split()[:2]) for ln in text.splitlines()]
        assert lines == sorted(lines)

    def test_keys_normalized(self):
        form = BilinearForm.from_map({(2, 0): 1, (0, 2): 1, (1, 1): 0})
        assert form.as_map() == {(0, 2): 2}

    def test_consistency_with_concrete_evaluation(self):
        rng = random.Random(99)
        for s in (1, 2, 3):
            for n in range(1, 6):
                for m in range(n, 6):
                    count = s * (m + 1) + 1
                    polys = [QPoly([rng.randint(0, 4) for _ in range(3)])
                             for _ in range(count)]
                    b = bisnomial_transform(PolySeq(tuple(polys)), s, m + 1).polys
                    concrete = b[n - 1] * b[m + 1] - b[n] * b[m]
                    assert transform_minor_form(n, m, s).evaluate(polys) == concrete

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            transform_minor_form(0, 1, 2)
        with pytest.raises(ValueError):
            transform_minor_form(3, 2, 2)


class TestPreservation:
    def test_aigner_rowgens_convex(self, preset_rowgens):
        report = check_preservation(preset_rowgens["aigner_catalan"], 2, 10, "convex")
        assert report.verdict == HOLDS
        assert report.input_report.holds and report.output_report.holds

    def test_binomial_powers_concave_all_s(self):
        for s in (1, 2, 3):
            ps = binomial_power_family(s * 10 + 1)
            report = check_preservation(ps, s, 10, "concave")
            assert report.verdict == HOLDS, s

    def test_gaussian_family_concave(self):
        ps = gaussian_family(11)
        report = check_preservation(ps, 1, 10, "concave")
        assert report.verdict == HOLDS
        assert report.input_report.holds  # verified in-suite, not assumed

    def test_failed_gate_is_inapplicable(self):
        ps = PolySeq((QPoly([1]), QPoly([1, 1]), QPoly([1]), QPoly([1])))
        report = check_preservation(ps, 1, 2, "convex")
        assert report.verdict == INAPPLICABLE
        assert report.output_report is None

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            check_preservation(constant_family(5), 1, 2, "sideways")
