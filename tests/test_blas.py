import numpy as np
import pytest

from airypng.blas import one_blas_thread


def _controls():
    """The (get, set) pair the scope binds; where numpy was built against
    OpenBLAS, the lookup must find it, so the scope is not a silent no-op."""
    with one_blas_thread:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"]:
        pytest.skip(f"numpy uses {blas['name']}, where the scope does nothing")
    assert one_blas_thread.controls is not None
    return one_blas_thread.controls


@pytest.mark.parametrize("caller", [1, 2, 3])
def test_scope_runs_at_one_thread_and_restores_the_callers_count(caller):
    get, put = _controls()
    before = get()
    put(caller)
    try:
        with one_blas_thread:
            assert get() == 1
            with one_blas_thread:
                assert get() == 1
            assert get() == 1   # a nested exit leaves the count alone
        assert get() == caller
        with pytest.raises(ZeroDivisionError):
            with one_blas_thread:
                with one_blas_thread:
                    assert get() == 1
                    1 / 0
        assert get() == caller
        with one_blas_thread:
            assert get() == 1
        assert get() == caller
    finally:
        put(before)
