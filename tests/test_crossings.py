"""Characteristic-root crossings and stability windows, against the
bundled systems' analytical margins, closed forms and the independent
frequency sweep of tests/oracles.py."""

import json
import math

import numpy as np
import pytest

import delaymargin.search as search
from delaymargin.cli import EXIT_INPUT, main
from delaymargin.crossings import Window, stability_windows
from delaymargin.lmi import DelaySystem, HierarchyParams
from delaymargin.search import NoFeasiblePointError, max_delay
from delaymargin.systems import BUNDLED_SYSTEMS, bundled_system
from oracles import characteristic_minimum, unstable_root_count

# the crossings below the first certainly unstable window, to six decimals
_BUNDLED_CROSSINGS = {
    "example1": [6.172581],
    "example2": [0.1, 0.2, 2.041285],
    "example3": [0.100168, 1.717858],
}


def _crossings(windows: list[Window]) -> list[float]:
    return [w.upper for w in windows if math.isfinite(w.upper)]


def _decimals(value: float) -> int:
    text = repr(float(value))
    return len(text.split(".")[1]) if "." in text else 0


@pytest.mark.parametrize("name", BUNDLED_SYSTEMS)
def test_bundled_crossings_match_the_analytical_bounds(name):
    sys, meta = bundled_system(name)
    windows = stability_windows(sys)
    expected = _BUNDLED_CROSSINGS[name]
    assert [round(t, 6) for t in _crossings(windows)[: len(expected)]] == expected
    # the one stable window's ends are the file's hand-entered bounds to
    # within a unit of their last printed digit
    (stable,) = [w for w in windows if w.unstable == 0]
    for end, key in ((stable.lower, "lower"), (stable.upper, "upper")):
        value = meta["analytical_bounds"][key]
        assert end == pytest.approx(value, abs=10.0 ** -_decimals(value))


def _frequency_bound(sys: DelaySystem, tau: float) -> float:
    """|w| of any imaginary root at tau: jw u = (A + A_d1 z + A_d2 (1 - z)/(jw)) u
    with |z| = 1 and |(1 - z)/(jw)| <= tau."""
    norm = lambda m: np.linalg.norm(m, 2)  # noqa: E731
    return norm(sys.a) + norm(sys.a_d1) + tau * norm(sys.a_d2) + 0.1


def _assert_roots_at_crossings(sys: DelaySystem) -> int:
    crossings = _crossings(stability_windows(sys))
    for tau in crossings:
        w_hi = _frequency_bound(sys, tau)
        assert characteristic_minimum(sys.a, sys.a_d1, tau, w_hi, sys.a_d2) < 1e-6, tau
    return len(crossings)


@pytest.mark.parametrize("name", BUNDLED_SYSTEMS)
def test_bundled_crossings_are_characteristic_roots(name):
    assert _assert_roots_at_crossings(bundled_system(name)[0]) >= 1


def test_random_crossings_are_characteristic_roots():
    # A = G1 - cI, A_d1 = G2, with c placing the rightmost eigenvalue of
    # A + A_d1 within 1 of the axis on either side
    rng = np.random.default_rng(2016)
    found = 0
    for n_x in (1, 2, 3, 4):
        for k in range(8):
            g1 = rng.standard_normal((n_x, n_x))
            g2 = rng.standard_normal((n_x, n_x))
            shift = np.linalg.eigvals(g1 + g2).real.max() + rng.uniform(-1.0, 1.0)
            sys = DelaySystem(g1 - shift * np.eye(n_x), g2, name=f"random-{n_x}-{k}")
            found += _assert_roots_at_crossings(sys)
    assert found >= 15


def _random_system(rng, n_x: int, distributed: bool, name: str) -> DelaySystem:
    """The recipe above, with a standard-normal A_d2 when ``distributed``."""
    g1 = rng.standard_normal((n_x, n_x))
    g2 = rng.standard_normal((n_x, n_x))
    shift = np.linalg.eigvals(g1 + g2).real.max() + rng.uniform(-1.0, 1.0)
    a_d2 = rng.standard_normal((n_x, n_x)) if distributed else None
    return DelaySystem(g1 - shift * np.eye(n_x), g2, a_d2, name=name)


def test_random_window_counts_match_the_generator_spectrum():
    # every certain count against the unstable eigenvalues of a collocated
    # generator: a bounded window's at its midpoint, and the last window's
    # (the count just above its lower end) at least in sign one past it
    rng = np.random.default_rng(19)
    checked = odd_steps = 0
    for k in range(60):
        sys = _random_system(rng, 1 + k % 3, k % 2 == 1, f"random-{k}")
        windows = stability_windows(sys)
        for w in windows:
            tau = 0.5 * (w.lower + w.upper) if math.isfinite(w.upper) else w.lower + 1.0
            if w.unstable is None or tau > 15.0:
                continue
            oracle = unstable_root_count(sys.a, sys.a_d1, sys.a_d2, tau)
            if math.isfinite(w.upper) or w.unstable == 0:
                assert oracle == w.unstable, (sys.name, w, oracle)
            else:
                assert oracle > 0, (sys.name, w, oracle)
            checked += 1
        # only a real root crossing s = 0 changes the count by an odd number
        odd_steps += any(
            None not in (u.unstable, v.unstable) and (u.unstable - v.unstable) % 2
            for u, v in zip(windows, windows[1:])
        )
    assert checked >= 100 and odd_steps >= 5, (checked, odd_steps)


def _scalar_blocks(blocks) -> DelaySystem:
    """Block-diagonal x_i' = -alpha_i x_i - beta_i x_i(t - tau), minus
    gamma_i int_{t-tau}^t x_i(s) ds when the blocks are (alpha, beta, gamma)."""
    alpha, beta, *gamma = np.array(blocks, dtype=float).T
    return DelaySystem(np.diag(-alpha), np.diag(-beta), *(np.diag(-g) for g in gamma),
                       name="scalar-blocks")


def _scalar_margin(alpha: float, beta: float) -> float:
    """Delay margin of x' = -alpha x - beta x(t - tau) for beta > |alpha|."""
    return math.acos(-alpha / beta) / math.sqrt(beta**2 - alpha**2)


@pytest.mark.parametrize(
    "blocks",
    [
        [(1.0, 2.0)],
        [(0.0, 1.0)],  # x' = -x(t - tau): pi/2
        [(1.0, 2.0), (0.5, 3.0), (-0.3, 1.2)],
        [(1.0, 2.0), (2.0, 1.0)],  # the second block is stable at any delay
    ],
)
def test_window_counts_match_scalar_closed_forms(blocks):
    windows = stability_windows(_scalar_blocks(blocks))
    margins = [_scalar_margin(a, b) for a, b in blocks if b > abs(a)]
    # stable exactly below the smallest margin; a pair crosses there and
    # no block's roots ever cross back
    assert len(windows) == 2
    first, last = windows
    assert first.lower == 0.0 and first.unstable == 0
    assert first.upper == pytest.approx(min(margins), rel=1e-12)
    assert last == Window(first.upper, math.inf, 2)


@pytest.mark.parametrize("blocks", [[(-2.0, 1.0)], [(1.0, -2.0)], [(1.0, 2.0), (-1.0, 0.5)]])
def test_unstable_at_every_delay_without_a_solve(monkeypatch, blocks):
    # a block with alpha + beta < 0 has a root in the right half-plane at
    # every delay, so no window is probed
    windows = stability_windows(_scalar_blocks(blocks))
    assert all(w.unstable for w in windows)

    def no_solve(*args, **kwargs):
        raise AssertionError("an unstable window was probed")

    monkeypatch.setattr(search, "decide_feasibility", no_solve)
    with pytest.raises(NoFeasiblePointError):
        max_delay(_scalar_blocks(blocks), HierarchyParams(1, 1))


def test_zero_root_crossing_with_singular_distributed_kernel():
    # x_1' = 0.2 x_1 - int x_1 (A_d2 singular), x_2' = -x_2: a real root
    # crosses zero at tau = 0.2, and jw with w^2 = 1.96 crosses where
    # e^{-jw tau} = 1 - w^2 - 0.2jw
    sys = DelaySystem(np.diag([0.2, -1.0]), np.zeros((2, 2)), np.diag([-1.0, 0.0]))
    omega = 1.4
    tau_c = -np.angle(1 - omega**2 - 0.2j * omega) % (2 * math.pi) / omega
    windows = stability_windows(sys)
    assert [w.unstable for w in windows] == [1, 0, 2]
    assert windows[0].upper == pytest.approx(0.2, rel=1e-12)
    assert windows[1].upper == pytest.approx(tau_c, rel=1e-12)


def test_a_root_on_the_axis_at_zero_delay_leaves_the_counts_uncertain():
    # A + A_d1 has eigenvalues +-j and no delayed term moves them
    sys = DelaySystem([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)))
    assert stability_windows(sys) == [Window(0.0, math.inf, None)]
    # x' = -x + x(t - tau) - int x: a zero root leaves s = 0 at tau = 0+
    sys = DelaySystem([[-1.0]], [[1.0]], [[-1.0]])
    assert {w.unstable for w in stability_windows(sys)} == {None}


@pytest.mark.parametrize(
    "blocks", [[(1.0, -1.0)], [(1.0, -1.0), (0.0, 1.0)], [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)]]
)
def test_a_zero_root_at_every_delay_leaves_no_window(monkeypatch, blocks):
    # s = 0 is a root at every delay: A_d2 = 0 and A + A_d1 singular, or
    # det(A + A_d1 + tau A_d2) = 0 for every tau (A = A_d2 = diag(0, -1))
    sys = _scalar_blocks(blocks)
    assert stability_windows(sys) == []

    def no_solve(*args, **kwargs):
        raise AssertionError("a delay was probed")

    monkeypatch.setattr(search, "decide_feasibility", no_solve)
    with pytest.raises(NoFeasiblePointError):
        max_delay(sys, HierarchyParams(1, 1))


def _block_diag(*blocks) -> np.ndarray:
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    i = 0
    for b in blocks:
        out[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return out


def _doubled_example3(rotate: bool) -> DelaySystem:
    """example3 twice over, block-diagonal or in a random orthogonal basis."""
    sys = bundled_system("example3")[0]
    mats = [_block_diag(m, m) for m in (sys.a, sys.a_d1, sys.a_d2)]
    if rotate:
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        mats = [q @ m @ q.T for m in mats]
    return DelaySystem(*mats, name="example3-doubled")


@pytest.mark.parametrize("rotate", [False, True])
def test_coinciding_roots_are_counted_with_their_multiplicity(rotate):
    # each crossing of example3 happens twice at once: the counts double
    windows = stability_windows(_doubled_example3(rotate))
    assert [round(t, 6) for t in _crossings(windows)[:2]] == [0.100168, 1.717858]
    assert [w.unstable for w in windows] == [
        2 * w.unstable for w in stability_windows(bundled_system("example3")[0])
    ]


@pytest.mark.parametrize("copies", [2, 3])
def test_identical_scalar_blocks_count_every_copy(copies):
    # x' = -x - 2 x(t - tau), `copies` times: all pairs cross at the margin
    windows = stability_windows(_scalar_blocks([(1.0, 2.0)] * copies))
    assert windows == [
        Window(0.0, pytest.approx(_scalar_margin(1.0, 2.0), rel=1e-12), 0),
        Window(pytest.approx(_scalar_margin(1.0, 2.0), rel=1e-12), math.inf, 2 * copies),
    ]


def test_max_delay_finds_the_doubled_example3_window():
    sys = _doubled_example3(rotate=False)
    bound, report = max_delay(sys, HierarchyParams(1, 1), tol=1e-3)
    lower, upper = report.crossings
    assert round(lower, 6) == 0.100168 and round(upper, 6) == 1.717858
    assert lower < bound <= upper
    # the block-diagonal system's bound is example3's own
    single, _ = max_delay(bundled_system("example3")[0], HierarchyParams(1, 1), tol=1e-3)
    assert bound == pytest.approx(single, abs=2e-3)


def test_an_overflowing_crossing_polynomial_is_an_input_error(capsys, tmp_path):
    # entries of 1e160 overflow the Kronecker products of the crossing
    # polynomial (1e320); at 1e150 they still fit and the margin scales
    with pytest.raises(ValueError, match="overflows") as info:
        stability_windows(DelaySystem([[-1e160]], [[-2e160]]))
    assert not isinstance(info.value, np.linalg.LinAlgError)  # not a solver breakdown
    (first, last) = stability_windows(DelaySystem([[-1e150]], [[-2e150]]))
    assert first.upper == pytest.approx(_scalar_margin(1.0, 2.0) * 1e-150, rel=1e-12)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_x": 1, "A": [[-1e160]], "A_d1": [[-2e160]]}))
    assert main(["bounds", "--system", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: the crossing polynomial overflows")


@pytest.mark.parametrize("a,a_d1", [
    ([[-1.5e308]], [[-1.5e308]]),  # A + A_d1 overflows to -inf
    ([[1e308, 1e308], [1e308, 1e308]], [[-1e308, -1e308], [-1e308, -1e308]]),  # ||A|| = inf
])
def test_an_overflowing_system_is_an_input_error(a, a_d1):
    with pytest.raises(ValueError, match="overflows") as info:
        stability_windows(DelaySystem(a, a_d1))
    assert not isinstance(info.value, np.linalg.LinAlgError)  # not a solver breakdown
