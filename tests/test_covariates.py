"""Environment generation, coefficient maps, and log-moment estimation."""

import dataclasses
import io
import math

import numpy as np
import pytest

import obsdriven as od
from conftest import hypothesis_settings, plain_moment
from obsdriven import covariates
from obsdriven.covariates import (
    abs_map,
    log_plus_moment_estimate,
    max_map,
    spec_hash,
    sum_map,
)
from obsdriven._codec import from_dict
from obsdriven.covariates import CovariateProcessSpec
from obsdriven.errors import DegenerateMap, EmptyRange, InvalidSpec
from obsdriven.verify import drift_certificate


def test_constant_path_is_copies_of_the_value():
    p = od.generate_path(od.Constant((1.0,)), -5, 5, 7)
    assert len(p) == 11
    assert np.all(p.values == 1.0)


def test_ar1_with_zero_coefficient_is_iid_standard_normal():
    # a = 0 degenerates to the noise law; mean over 1e5 within 3 sigma of 0
    p = od.generate_path(od.AR1(0.0, od.Gaussian(0.0, 1.0)), 0, 10**5 - 1, 21)
    m = p.values.mean()
    assert abs(m) < 3.0 / math.sqrt(10**5)
    assert abs(p.values.std() - 1.0) < 0.01


def test_generate_path_deterministic_in_spec_seed_range():
    spec = od.AR1(0.7, od.Gaussian(0.5, 2.0))
    a = od.generate_path(spec, -3, 40, 99)
    b = od.generate_path(spec, -3, 40, 99)
    assert np.array_equal(a.values, b.values)
    c = od.generate_path(spec, -3, 40, 100)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize(
    "spec",
    [
        od.IID(od.Uniform(0, 1)),
        od.IID(od.Gaussian(0, 1), dimension=3),
        od.AR1(0.6, od.Gaussian(0, 1)),
        od.AR1(0.5, od.Uniform(-1, 1)),
        od.AR1(-0.4, od.Gaussian(1, 0.5)),
        od.FiniteStateMarkov(((0.0,), (1.0,), (2.0,)),
                             ((0.2, 0.5, 0.3), (0.4, 0.2, 0.4), (0.3, 0.3, 0.4))),
    ],
)
def test_backward_extension_preserves_the_suffix_exactly(spec):
    # the per-index stream contract: the path on [a, b] is the restriction
    # of the path on [a - k, b], bit for bit
    short = od.generate_path(spec, -10, 25, 4242)
    long = od.generate_path(spec, -160, 25, 4242)
    assert np.array_equal(short.values, long.values[150:])


def test_ar1_gaussian_path_is_lfilter_bit_for_bit():
    # the recursion replaced scipy.signal.lfilter([1], [1, -a], zi=...) in
    # generate_path; rebuild the lfilter path from the same stream words
    from scipy.signal import lfilter
    from scipy.special import ndtri

    from obsdriven.covariates import _TAG_ENV, _words_per_index
    from obsdriven.rngstream import IndexedStream

    for a in (0.0, -0.4, 0.6, 0.9999):
        for d in (1, 2, 3):
            for n in (1, 2, 3, 2000):
                spec = od.AR1(a, od.Gaussian(0.3, 1.7), dimension=d)
                got = od.generate_path(spec, -5, n - 6, 31).values
                z = ndtri(IndexedStream(31, _TAG_ENV, _words_per_index(spec)).uniforms(-5, n)[:, :d])
                m, s = 0.3 / (1.0 - a), 1.7 / math.sqrt(1.0 - a * a)
                anchor = m + s * z[-1]
                want = anchor[None, :]
                if n > 1:
                    out = lfilter([1.0], [1.0, -a], 1.7 * z[:-1][::-1], axis=0,
                                  zi=(a * (anchor - m))[None, :])[0]
                    want = np.concatenate([(m + out)[::-1], want])
                assert got.shape == (n, d)
                assert np.array_equal(got, want), (a, d, n)


def test_ar1_gaussian_matches_its_stationary_law():
    spec = od.AR1(0.8, od.Gaussian(1.0, 2.0))
    v = od.generate_path(spec, 0, 2 * 10**5, 5).values.ravel()
    m, s2 = 1.0 / 0.2, 4.0 / (1 - 0.64)
    assert abs(v.mean() - m) < 0.05
    assert abs(v.var() - s2) < 0.25
    assert abs(np.corrcoef(v[:-1], v[1:])[0, 1] - 0.8) < 0.01


def test_markov_empirical_frequencies_match_stationary_vector():
    spec = od.FiniteStateMarkov(((0.0,), (1.0,)), ((0.5, 0.5), (0.4, 0.6)))
    pi = spec.stationary_vector()
    n = 10**5
    p = od.generate_path(spec, 0, n - 1, 11)
    for j, s in enumerate(spec.states):
        freq = np.mean(np.all(p.values == np.asarray(s), axis=1))
        sigma = math.sqrt(pi[j] * (1 - pi[j]) / n)
        assert abs(freq - pi[j]) < 3 * sigma


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        od.AR1(1.0, od.Gaussian(0, 1))
    with pytest.raises(InvalidSpec):
        od.AR1(-1.3, od.Gaussian(0, 1))
    # finite noise whose stationary reach max|noise| / (1 - |a|) overflows float64
    for a, noise in ((0.9, od.Uniform(-8e307, 8e307)), (-0.999, od.Gaussian(1e305, 1e304)),
                     (0.5, od.PointMass(-1e308))):
        with pytest.raises(InvalidSpec, match="stationary reach"):
            od.AR1(a, noise)
    assert np.all(np.isfinite(od.generate_path(od.AR1(0.9, od.Uniform(-1e306, 1e306)), 0, 99, 3).values))
    with pytest.raises(InvalidSpec):
        od.FiniteStateMarkov(((0.0,), (1.0,)), ((0.5, 0.6), (0.4, 0.6)))
    with pytest.raises(InvalidSpec):
        # reducible: state 1 unreachable from state 0
        od.FiniteStateMarkov(((0.0,), (1.0,)), ((1.0, 0.0), (0.5, 0.5)))
    with pytest.raises(EmptyRange):
        od.generate_path(od.Constant((1.0,)), 3, 2, 0)
    # non-finite parameters would give NaN or inf paths; an empty constant a path of width 0
    nan, inf = float("nan"), float("inf")
    for make in (lambda: od.Gaussian(0, nan), lambda: od.Uniform(-inf, inf), lambda: od.PointMass(nan),
                 lambda: od.Constant((inf,)), lambda: od.Constant(()),
                 lambda: od.FiniteStateMarkov(((0.0,), (nan,)), ((0.5, 0.5), (0.5, 0.5)))):
        with pytest.raises(InvalidSpec):
            make()
    # states of unequal length make no path; finite parameters whose draws overflow make inf paths
    for make in (lambda: od.FiniteStateMarkov(((0.0,), (1.0, 2.0)), ((0.5, 0.5), (0.5, 0.5))),
                 lambda: od.Uniform(-1e308, 1e308), lambda: od.Gaussian(0.0, 1e308),
                 lambda: od.Gaussian(1e308, 1e307), lambda: od.Gaussian(-1e308, 1e307)):
        with pytest.raises(InvalidSpec):
            make()


def test_widest_accepted_gaussian_and_uniform_draw_finite_paths():
    # the stream's uniforms lie in [2**-54, 1 - 2**-53]; |ndtri| there is at most -ndtri(2**-54)
    from scipy.special import ndtri

    assert covariates._NDTRI_TAIL == -ndtri(2.0**-54) > ndtri(1.0 - 2.0**-53)
    top, tail = np.finfo(float).max, covariates._NDTRI_TAIL
    sigma = top / tail  # then the largest sigma whose tail draw is finite
    while math.isfinite(math.nextafter(sigma, math.inf) * tail):
        sigma = math.nextafter(sigma, math.inf)
    while not math.isfinite(sigma * tail):
        sigma = math.nextafter(sigma, 0.0)
    with pytest.raises(InvalidSpec):
        od.Gaussian(0.0, math.nextafter(sigma, math.inf))
    u = np.array([2.0**-54, 0.5, 1.0 - 2.0**-53])
    for marginal in (od.Gaussian(0.0, sigma), od.Uniform(-top / 2, top / 2)):
        assert np.isfinite(marginal.from_uniform(u)).all()
        assert np.isfinite(od.generate_path(od.IID(marginal), 0, 999, 3).values).all()


def test_log_moment_constant_half():
    est = od.log_moment_estimate(od.ConstantMap(0.5), od.IID(od.Uniform(0, 1)), 500, 1)
    assert est.mean == pytest.approx(math.log(0.5))
    assert est.std_error == 0.0
    assert est.verdict == "negative"


def test_log_moment_affine_abs_on_constant_covariate():
    est = od.log_moment_estimate(
        od.AffineAbsMap(0.4, (0.3,), True), od.Constant((1.0,)), 500, 1
    )
    assert est.mean == pytest.approx(math.log(0.7))
    assert est.verdict == "negative"


def test_log_moment_exp_affine_boundary_is_inconclusive():
    # log map(X) = X with X ~ N(0,1): the analytic mean is exactly 0, which
    # a 99% interval cannot call on either side
    est = od.log_moment_estimate(
        od.ExpAffineMap(0.0, (1.0,)), od.IID(od.Gaussian(0, 1)), 10**4, 3
    )
    assert abs(est.mean) < 2.576 * est.std_error
    assert est.verdict == "inconclusive"


def test_log_moment_verdict_rule_and_flooring():
    assert od.MomentEstimate(-1.0, 0.1, 100).verdict == "negative"
    assert od.MomentEstimate(1.0, 0.1, 100).verdict == "nonnegative"
    assert od.MomentEstimate(0.1, 0.1, 100).verdict == "inconclusive"
    with pytest.raises(DegenerateMap):
        od.log_moment_estimate(od.ConstantMap(0.0), od.IID(od.Uniform(0, 1)), 200, 1)
    # a table with one zero state floors those draws and counts them
    spec = od.FiniteStateMarkov(((0.0,), (1.0,)), ((0.5, 0.5), (0.5, 0.5)))
    table = od.TableMap(((0.0,), (1.0,)), (0.0, 0.5), nonnegative=True)
    est = od.log_moment_estimate(table, spec, 1000, 2)
    assert est.n_floored > 0
    assert est.verdict == "negative"


def test_plain_and_log_plus_moments():
    spec = od.IID(od.Uniform(0, 1))
    m = plain_moment(od.AffineAbsMap(0.4, (0.3,), True), spec, 10**5, 9)
    assert abs(m - 0.55) < 0.005
    lp = log_plus_moment_estimate(od.ConstantMap(0.5), spec, 200, 1)
    assert lp.mean == 0.0  # log+ of a value below 1


def test_stationary_draws_match_path_marginals():
    spec = od.AR1(0.5, od.Uniform(-1.0, 1.0))
    draws = od.stationary_draws(spec, 2 * 10**4, 8).ravel()
    path = od.generate_path(spec, 0, 2 * 10**4, 9).values.ravel()
    assert abs(draws.mean() - path.mean()) < 0.02
    assert abs(draws.std() - path.std()) < 0.02


def test_coefficient_map_nonnegative_flag_enforced():
    with pytest.raises(InvalidSpec):
        od.ConstantMap(-0.5, nonnegative=True)
    with pytest.raises(InvalidSpec):
        od.AffineAbsMap(0.1, (-0.2,), nonnegative=True)
    with pytest.raises(InvalidSpec):
        od.TableMap(((0.0,),), (-1.0,), nonnegative=True)


def test_spec_json_round_trip_and_hash():
    specs = [
        od.Constant((2.0, 3.0)),
        od.IID(od.Gaussian(0.5, 1.5), dimension=2),
        od.AR1(0.3, od.Uniform(0, 2)),
        od.FiniteStateMarkov(((0.0,), (1.0,)), ((0.9, 0.1), (0.2, 0.8))),
    ]
    for spec in specs:
        again = from_dict(CovariateProcessSpec, spec.to_dict(), "covariates")
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)


def test_path_csv_headers_and_precision():
    p = od.generate_path(od.IID(od.Gaussian(0, 1), dimension=2), 0, 2, 1)
    buf = io.StringIO()
    p.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x_1,x_2"
    row = lines[1].split(",")
    assert float(row[1]) == p.values[0, 0]  # 17 significant digits round-trip


def _reference_csv(columns):
    """The csv.writer + format(c, ".17g") writer that result files were first written with."""
    import csv

    buf = io.StringIO(newline="")
    header, cells = [], []
    for name, values in columns:
        v = np.asarray(values)
        v = (v if v.ndim == 2 else v[:, None]).T
        header += [name] if len(v) == 1 else [f"{name}_{j + 1}" for j in range(len(v))]
        if v.dtype.kind in "biu":
            cells += v.astype(np.int64).tolist()
        else:
            cells += [[format(c, ".17g") for c in col] for col in v.tolist()]
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(zip(*cells))
    return buf.getvalue()


def test_write_csv_keeps_the_csv_writer_bytes():
    from obsdriven.covariates import write_csv

    hyp, st, settings = hypothesis_settings()
    edge = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1])
    floats = st.one_of(edge, st.floats(allow_nan=True, allow_infinity=True))
    kinds = {"float": (floats, float), "int": (st.integers(-2**63, 2**63 - 1), np.int64), "bool": (st.booleans(), bool)}
    # run-heavy float columns, drawn as bit patterns: long runs of one value, signed
    # zeros, NaN payloads and infinities next to the fast cells
    bits = floats.map(lambda f: int(np.float64(f).view(np.int64)))
    nan_payloads = [0x7FF8000000000000, 0x7FF8000000000001, 0x7FF4000000000000, -0x0008000000000000, -1]
    runs = {
        "constant": st.lists(bits, min_size=1, max_size=1),
        "two-valued": st.lists(bits, min_size=2, max_size=2),
        "signed-zeros": st.just([0, -2**63]),
        "nan-payloads": st.just(nan_payloads),
        "infinities": st.just([0x7FF0000000000000, -0x0010000000000000]),
    }

    def run_column(data, n, pool):
        cells = []
        while len(cells) < n:
            cells += [data.draw(st.sampled_from(pool))] * data.draw(st.integers(1, 120))
        return np.array(cells[:n], dtype=np.int64).view(np.float64)

    @hyp.settings(settings, max_examples=150)
    @hyp.given(st.one_of(st.integers(0, 6), st.integers(7, 300)),
               st.lists(st.tuples(st.sampled_from(sorted(kinds) + sorted(runs)), st.integers(1, 3)),
                        min_size=1, max_size=4), st.data())
    def check(n, blocks, data):
        columns = []
        for j, (kind, k) in enumerate(blocks):
            if kind in runs:
                values = np.column_stack([run_column(data, n, data.draw(runs[kind])) for _ in range(k)])
            else:
                # past 6 rows the drawn cells repeat: drawing every cell is slow
                cells, dtype = kinds[kind]
                m = min(n, 6) * k
                values = np.array(data.draw(st.lists(cells, min_size=m, max_size=m)), dtype=dtype)
                values = np.resize(values, n * k).reshape(n, k)
            columns.append((f"c{j}", values[:, 0] if k == 1 else values))
        buf = io.StringIO(newline="")
        write_csv(buf, columns)
        assert buf.getvalue() == _reference_csv(columns)

    check()
    # a constant column (one run) next to one whose every cell differs
    columns = [("constant", np.full(200, 0.1)), ("distinct", np.arange(200) / 7.0), ("t", np.arange(200))]
    buf = io.StringIO(newline="")
    write_csv(buf, columns)
    assert buf.getvalue() == _reference_csv(columns)


def test_write_csv_fast_path_matches_the_reference_bytes():
    from obsdriven.covariates import _PASS, _fast_cells, write_csv

    rng = np.random.default_rng(20240)
    bits = rng.integers(-2**63, 2**63 - 1, 100_000, dtype=np.int64, endpoint=True).view(np.float64)
    log_uniform = rng.choice([-1.0, 1.0], 20_000) * 10 ** rng.uniform(-6, 17, 20_000)
    powers = np.array([float(f"1e{k}") for k in range(-6, 18)])
    edges = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    # exact ties of the 17-digit rounding: v = N * 2**-k, N odd, has the 18 significant
    # digits of N * 5**k, the last one a 5; k from 2 to 25 puts v in [1e-8, 1e16)
    ties = []
    for k in range(2, 26):
        lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        ties.append(np.ldexp(2.0 * rng.integers(lo // 2, hi // 2, 300) + 1, -k))
    ties = np.concatenate(ties)
    floats = np.concatenate([bits, log_uniform, edges, -edges, ties, -ties, [0.0, -0.0]])
    # the fast path formats every cell of its class, so the Python path sees only the others
    for lo in range(0, len(floats), _PASS):
        v = floats[lo:lo + _PASS]
        a = np.abs(v)
        assert (_fast_cells(v)[1] == ~((a == 0) | ((a >= 1e-4) & (a < 1e15)))).all()
    n = len(floats) // 2
    ints = np.array([10**15 - 1, 1 - 10**15, 10**15, -10**15, 2**63 - 1, -2**63, 0, 1, -1, 12345])
    columns = [("t", np.resize(ints, n)), ("v", floats[:2 * n].reshape(n, 2)),
               ("met", np.resize([True, False, False], n)), ("w", floats[::-1][:n])]
    buf = io.StringIO(newline="")
    write_csv(buf, columns)
    assert buf.getvalue() == _reference_csv(columns)


def test_seed_split_changes_streams():
    seeds = {od.split_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert od.split_seed(42, 1) == od.split_seed(42, 1)


# ---------------------------------------------------------------------------
# whole-array evaluation
# ---------------------------------------------------------------------------

def _maps_for_width(d: int) -> list:
    """Every kind of coefficient map the library builds, for rows of width d."""
    CM = od.ConstantMap
    slopes = tuple(0.3 * (j + 1) for j in range(d))
    menu = [
        CM(-0.7),
        od.AffineAbsMap(0.2, (0.4,), True),
        od.AffineAbsMap(-0.1, slopes),
        od.ExpAffineMap(0.1, (-0.5,)),
        od.ExpAffineMap(-0.2, slopes),
    ]
    signed = od.AffineAbsMap(-0.9, (0.6,))
    combos = [abs_map(signed), sum_map("sum", signed, *menu), max_map("max", signed, *menu)]

    def regime(k, kt, g):
        return od.RegimeCoefficients(od.AffineAbsMap(k, (0.1,)), od.AffineAbsMap(kt, (0.2,), True), CM(g))

    threshold = [
        od.ThresholdLink(regime(0.3, 1.0, 0.1), regime(-0.4, 0.2, 0.8), interval, order=1)
        for interval in (od.CovariateScaled(-1.0, 1.0), od.FixedInterval(-2.0, 0.5),
                         od.FixedInterval(0.0, math.inf))
    ]
    table = od.CategoryTable(((0.2, -0.1, 0.4), (0.0, 0.3, -0.2)))
    linear = od.LinearLink(od.AffineAbsMap(0.1, (0.2,)), od.AffineAbsMap(0.0, (0.3,), True),
                           od.ExpAffineMap(-1.0, (0.5,)), order=1)
    arma = od.ArmaLikeLink(od.AffineAbsMap(0.1, (0.3,)), od.ExpAffineMap(0.0, (0.2,)), CM(-0.5))
    multinomial = od.LinearLink(od.AffineAbsMap(0.3, (0.2,), True), table, CM(0.1), order=1)
    envelopes = []
    for link in [linear, arma, multinomial, *threshold]:
        env = od.growth_envelope(link)
        envelopes += [od.contraction_map(link), env.kappa_map, env.kappa_tilde_map, env.delta_map]
    env_x = od.IID(od.Uniform(0.0, 1.0), dimension=d)
    models = [
        od.ModelSpec(od.Poisson(), dataclasses.replace(linear, floor=0.0), env_x),
        od.ModelSpec(od.BernoulliLogit(), linear, env_x),
        od.ModelSpec(od.BernoulliLogit(), threshold[0], env_x),
        od.ModelSpec(od.Multinomial(3), multinomial, env_x),
        od.ModelSpec(od.Location(od.GaussianNoise(1.0)), arma, env_x),
    ]
    certificates = [m for model in models for m in drift_certificate(model)]
    return menu + combos + envelopes + certificates


def test_every_map_evaluates_a_batch_like_its_rows():
    hyp, st, settings = hypothesis_settings()
    maps = {d: _maps_for_width(d) for d in (1, 2)}
    rows_of = lambda d: st.lists(  # noqa: E731
        st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d), min_size=1, max_size=8,
    )

    @settings
    @hyp.given(st.sampled_from((1, 2)).flatmap(rows_of))
    def check(rows):
        X = np.asarray(rows, dtype=float)
        n, d = X.shape
        table = od.TableMap(tuple(map(tuple, X)), tuple(float(i) - 2.5 for i in range(n)))
        for m in maps[d] + [table]:
            batch = m.evaluate(X)
            assert isinstance(batch, np.ndarray) and batch.shape == (n,), m
            each = np.array([m.evaluate(X[i]) for i in range(n)], dtype=float)
            assert batch.astype(float).tobytes() == each.tobytes(), m

    check()


def test_derived_map_calls_its_function_once_per_array():
    m = sum_map("kappa + kappa_tilde", od.AffineAbsMap(0.1, (0.3,), True), od.ConstantMap(0.2))
    shapes = []

    def counted(x):
        shapes.append(x.shape)
        return m.fn(x)

    X = np.linspace(-1.0, 1.0, 40).reshape(20, 2)
    got = dataclasses.replace(m, fn=counted).evaluate(X)
    assert shapes == [(20, 2)]
    assert np.array_equal(got, m.evaluate(X))


def test_table_map_on_a_markov_path_and_off_table_rows():
    spec = od.FiniteStateMarkov(
        ((0.0, 1.0), (1.0, -1.0), (2.5, 0.5)),
        ((0.2, 0.5, 0.3), (0.4, 0.2, 0.4), (0.3, 0.3, 0.4)),
    )
    path = od.generate_path(spec, 0, 299, 17)
    table = od.TableMap(spec.states, (0.5, 2.0, -1.0))
    got = table.evaluate(path.values)
    state_index = [spec.states.index(tuple(v)) for v in path.values.tolist()]
    assert np.array_equal(got, np.asarray(table.values)[state_index])
    assert table.evaluate(path.values[4]) == got[4]
    off = path.values.copy()
    off[7] = (0.5, 0.5)
    off[9] = (9.0, 9.0)
    with pytest.raises(InvalidSpec, match=r"\[0\.5 0\.5\] not in table states"):
        table.evaluate(off)
    with pytest.raises(InvalidSpec, match="not in table states"):
        table.evaluate(np.array([[0.0, 1.0], [np.nan, 1.0]]))
