"""The suite's own pytest configuration keeps reporting past a failing test."""

pytest_plugins = ["pytester"]


def test_failing_hypothesis_test_is_reported_not_internal_error(pytester, request):
    # hypothesis's failure report imports a deprecated name; unless the
    # config filters that DeprecationWarning, "error" turns it into
    # INTERNALERROR and the whole run ends there.
    entries = request.config.getini("filterwarnings")
    assert "error" in entries  # the suite's own config, not an empty default
    lines = "\n".join(f"    {entry}" for entry in entries)
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{lines}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            assert True
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
