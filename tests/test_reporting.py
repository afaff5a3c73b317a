import sys

import pytest

from sumsetlab.reporting import LEADING_DIGITS, MAX_DECIMAL_DIGITS, render_int


@pytest.fixture
def unlimited_str():
    """Lift the interpreter's int/str digit cap so tests can build references."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


class TestRenderInt:
    def test_float_safe_values_stay_plain(self):
        assert render_int(0) == 0
        assert render_int((1 << 53) - 1) == (1 << 53) - 1
        assert render_int(-(1 << 53) + 1) == -(1 << 53) + 1

    def test_large_values_render_in_full(self):
        assert render_int(1 << 53) == {"decimal": str(1 << 53), "digits": 16}
        assert render_int(-(30 ** 15)) == {"decimal": str(-(30 ** 15)), "digits": 23}
        at_cutoff = 10 ** MAX_DECIMAL_DIGITS - 1
        assert render_int(at_cutoff) == {"decimal": "9" * MAX_DECIMAL_DIGITS,
                                         "digits": MAX_DECIMAL_DIGITS}

    @pytest.mark.parametrize("value", [
        10 ** MAX_DECIMAL_DIGITS,
        10 ** MAX_DECIMAL_DIGITS + 1,
        10 ** 9999 - 1,
        12 ** 9477,
        24 ** 53248,
    ], ids=["10^4300", "10^4300+1", "10^9999-1", "12^9477", "24^53248"])
    def test_huge_values_render_compactly(self, unlimited_str, value):
        text = str(value)
        assert render_int(value) == {"digits": len(text),
                                     "leading": text[:LEADING_DIGITS]}
        assert render_int(-value) == {"digits": len(text),
                                      "leading": "-" + text[:LEADING_DIGITS]}

    def test_digit_counts_at_powers_of_ten(self, unlimited_str):
        for k in range(MAX_DECIMAL_DIGITS + 1, MAX_DECIMAL_DIGITS + 40):
            for value in (10 ** k - 1, 10 ** k, 10 ** k + 1):
                assert render_int(value)["digits"] == len(str(value))
