"""Brent's root finder: bit-for-bit agreement with scipy.optimize.brentq
where SciPy is installed, its own guarantees without SciPy, and commands
that run with SciPy unimportable."""

import math
import subprocess
import sys

import numpy as np
import pytest

import dmabeam as db
import dmabeam.array_training as at
import dmabeam.bandwidth_analysis as ba
from dmabeam import _brent
from dmabeam._brent import RTOL, brentq

F_STAR = 16.430980937585947e9


def steep(x):
    return math.tanh(40.0 * (x - 0.3)) + 0.01


def cubic(x):
    return x ** 3 - 2.0 * x - 5.0


def random_brackets(count, seed):
    """(f, a, b, xtol): a sign change inside [a, b], either end first."""
    rng = np.random.default_rng(seed)
    roots = {steep: 0.3 - math.atanh(0.01) / 40.0, cubic: 2.0945514815423265}
    for i in range(count):
        f = (steep, cubic)[i % 2]
        a = roots[f] - rng.uniform(1e-3, 2.0)
        b = roots[f] + rng.uniform(1e-3, 2.0)
        if rng.random() < 0.5:
            a, b = b, a
        yield f, float(a), float(b), float(10.0 ** rng.uniform(-15, -1))


def outcome(solver, *args, **kwargs):
    """The root's bits, or the error's type and message."""
    try:
        return ("root", solver(*args, **kwargs).hex())
    except (ValueError, RuntimeError) as err:
        return (type(err).__name__, str(err))


def test_psi_delta_matches_scipy_bit_for_bit(monkeypatch):
    """psi_delta's own bracket and excess, N = 2..256, three deltas each."""
    scipy_brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(7)
    cases = [(n, float(d)) for n in range(2, 257)
             for d in rng.uniform(0.01, 0.99, size=3)]
    ours = [at.psi_delta(n, d) for n, d in cases]
    monkeypatch.setattr(at, "brentq", scipy_brentq)
    theirs = [at.psi_delta(n, d) for n, d in cases]
    assert [x.hex() for x in ours] == [x.hex() for x in theirs]


def test_array_cutoffs_match_scipy_bit_for_bit(design, monkeypatch):
    scipy_brentq = pytest.importorskip("scipy.optimize").brentq
    cases = [(np.radians(phi), nu) for phi in (-18.0, 0.0, 30.0)
             for nu in (0.1, 0.5, 0.9)]
    ours = [ba.array_cutoff_frequencies(design, phi, F_STAR, nu)
            for phi, nu in cases]
    monkeypatch.setattr(ba, "brentq", scipy_brentq)
    theirs = [ba.array_cutoff_frequencies(design, phi, F_STAR, nu)
              for phi, nu in cases]
    assert ours == theirs


def test_random_brackets_match_scipy_bit_for_bit(monkeypatch):
    """1,000 brackets with xtol from 1e-15 to 1e-1, a tenth of them with a
    small iteration cap, and the edge cases: same bits, same errors."""
    scipy_brentq = pytest.importorskip("scipy.optimize").brentq
    for i, (f, a, b, xtol) in enumerate(random_brackets(1000, seed=3)):
        maxiter = 100 if i % 10 else 1 + i % 7
        monkeypatch.setattr(_brent, "MAXITER", maxiter)
        assert outcome(brentq, f, a, b, xtol=xtol) \
            == outcome(scipy_brentq, f, a, b, xtol=xtol, maxiter=maxiter)
    monkeypatch.undo()
    for f, a, b in [(lambda x: x if x < 1 else math.nan, -1.0, 1.0),
                    (lambda x: math.nan if x < 0 else x, -1.0, 1.0),
                    (lambda x: math.nan if -0.5 < x < 0.5 else x, -1.0, 2.0),
                    (lambda x: x * x + 1.0, -1.0, 1.0),
                    (lambda x: x - 1.0, 0.0, 1.0),
                    (lambda x: 1e-300 * cubic(x), 0.0, 4.0)]:
        assert outcome(brentq, f, a, b, xtol=1e-12) \
            == outcome(scipy_brentq, f, a, b, xtol=1e-12)


def test_root_lies_within_tolerance_of_a_sign_change():
    for f, a, b, xtol in random_brackets(500, seed=11):
        x = brentq(f, a, b, xtol=xtol)
        tol = xtol + RTOL * abs(x)
        assert min(a, b) <= x <= max(a, b)
        assert f(x) == 0 or (f(x - tol) < 0) != (f(x + tol) < 0)


def test_an_underflowing_step_divisor_bisects():
    """At values near 1e-300 the extrapolation's divisor underflows to
    zero; brentq.c then bisects, and so does the port."""
    x = brentq(lambda x: 1e-300 * cubic(x), 0.0, 4.0, xtol=1e-15)
    assert x == pytest.approx(2.0945514815423265, abs=1e-14)


def test_a_zero_at_an_end_is_returned():
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0


def test_bracket_without_a_sign_change_raises():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x if x < 1 else math.nan, -1.0, 1.0),
    (lambda x: math.nan if x < 0 else x, -1.0, 1.0),
    (lambda x: math.nan if -0.5 < x < 0.5 else x, -1.0, 2.0)],
    ids=["upper-end", "lower-end", "inside"])
def test_nan_value_raises(f, a, b):
    with pytest.raises(ValueError, match="is NaN"):
        brentq(f, a, b, xtol=1e-12)


def test_running_out_of_iterations_raises(monkeypatch):
    monkeypatch.setattr(_brent, "MAXITER", 3)
    with pytest.raises(RuntimeError, match="after 3 iterations"):
        brentq(cubic, 2.0, 3.0, xtol=1e-15)


def test_array_cutoff_with_a_nan_response_raises_cutoff_error(design,
                                                              monkeypatch):
    """A NaN array factor ends the search in InfeasibleError, not a root."""
    monkeypatch.setattr(ba, "dirichlet_kernel",
                        lambda d, phi, f: 1.0 if f == F_STAR else math.nan)
    with pytest.raises(db.InfeasibleError, match="is NaN"):
        ba.array_cutoff_frequencies(design, np.radians(-18.0), F_STAR, 0.5)


BLOCK_SCIPY = """
import importlib.abc, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, RefuseScipy())
import dmabeam.cli as cli

out = sys.argv[1]
for argv in (["train", "--phi", "10"], ["rate"], ["freq-response"],
             ["verify"]):
    code = cli.main(argv + ["--out", f"{out}/{argv[0]}"])
    assert code == 0, (argv, code)
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
print("ok")
"""


def test_commands_run_with_scipy_unimportable(tmp_path):
    """train, rate, freq-response and verify on the default scenario need
    no SciPy, though it may be installed."""
    proc = subprocess.run([sys.executable, "-c", BLOCK_SCIPY, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
