"""Property: ``theory``, ``spectral`` and ``sample`` end cleanly on any finite float flag.

The flags are drawn from extreme finite values, subnormal up to 1e308 and of
either sign, among ordinary ones.  Every call must exit 0, 2 or 3 with no
traceback, and an exit 2 must print nothing on stdout: a flag is checked
before any output.  The examples are overflow, underflow and cancellation
cases of the exact-OU kernels, the theory constants and the spectral
tables.
"""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hfhr.cli import main
from hfhr.samplers import KINDS

ORDINARY = st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0, 2.0, 10.0])
EXTREME = st.one_of(
    st.sampled_from([5e-324, 1e-320, 1e-200, 1e-162, 1e-4, 700.0, 1e10, 1e77, 1e154, 1e200, 1.7976931348623157e308]),
    st.floats(-323.0, 308.0).map(lambda e: 10.0**e),
)
FLOATS = st.builds(lambda sign, value: sign * value, st.sampled_from([1.0, 1.0, -1.0]), st.one_of(ORDINARY, EXTREME))

SETTINGS = settings(
    max_examples=150,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception here would be a traceback
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
    return code


@SETTINGS
@given(L=FLOATS, m=FLOATS, alpha=FLOATS, gamma=FLOATS, poincare=st.none() | FLOATS)
@example(L=1.0, m=1.0, alpha=1.0, gamma=1e200, poincare=None)
@example(L=1.0, m=1.0, alpha=1e200, gamma=1.0, poincare=None)
@example(L=1.0, m=1.0, alpha=0.0, gamma=1e10, poincare=None)
@example(L=1.0, m=1.0, alpha=1e150, gamma=1e60, poincare=None)
@example(L=5e-324, m=5e-324, alpha=5e-324, gamma=1e-200, poincare=None)
def test_theory_ends_cleanly(L, m, alpha, gamma, poincare):
    argv = ["theory", f"--L={L!r}", f"--m={m!r}", f"--alpha={alpha!r}", f"--gamma={gamma!r}"]
    run(argv + ([] if poincare is None else [f"--poincare={poincare!r}"]))


@SETTINGS
@given(gamma=FLOATS, c=FLOATS, eps=FLOATS)
@example(gamma=1e154, c=1.0, eps=0.1)
@example(gamma=1.0, c=5e-324, eps=0.05)
@example(gamma=1.0, c=5e-324, eps=0.9)
def test_spectral_ends_cleanly(gamma, c, eps):
    run(["spectral", f"--gamma={gamma!r}", f"--c={c!r}", f"--eps={eps!r}"])


@SETTINGS
@given(
    kind=st.sampled_from(KINDS), step=FLOATS, gamma=FLOATS, alpha=FLOATS, q0=FLOATS, p0=FLOATS
)
@example(kind="uld_klmc", step=400.0, gamma=2.0, alpha=0.0, q0=1.0, p0=0.0)
@example(kind="hfhr_strang", step=1e300, gamma=2.0, alpha=0.0, q0=1.0, p0=0.0)
@example(kind="hfhr_strang", step=0.1, gamma=1e-320, alpha=0.0, q0=1.0, p0=0.0)
@example(kind="uld_klmc", step=1e-201, gamma=1e200, alpha=0.0, q0=1.0, p0=0.0)
@example(kind="uld_klmc", step=1e199, gamma=1e-200, alpha=0.0, q0=1.0, p0=0.0)
@example(kind="hfhr_strang", step=1e-110, gamma=1.0, alpha=0.0, q0=1.0, p0=0.0)
def test_sample_ends_cleanly(kind, step, gamma, alpha, q0, p0):
    run([
        "sample", "--potential", "quadratic_iso", f"--kind={kind}", f"--step={step!r}", "--steps", "2",
        f"--gamma={gamma!r}", f"--alpha={alpha!r}", f"--q0={q0!r}", f"--p0={p0!r}",
    ])
