import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtarget import (
    BekkParams,
    DataError,
    DccParams,
    Garch11Params,
    RunConfig,
    ShapeError,
    bekk_simulate,
    build_target,
    kl_divergence,
    render_text_table,
    run_evaluation,
    run_fits,
    sample_moments,
)
from covtarget.report import (
    bekk_document,
    dcc_document,
    params_from_document,
    render_json,
)

from conftest import bekk2, gaussian_panel, random_corr, random_spd


def small_config(**kw):
    base = dict(
        input="panel.csv",
        models=("bekk", "dcc"),
        delta=0.3,
        seed=7,
        sim_len=60,
        starts=1,
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_validation(self):
        small_config()
        with pytest.raises(DataError):
            small_config(models=())
        with pytest.raises(DataError):
            small_config(models=("bekk", "nope"))
        with pytest.raises(DataError):
            small_config(models=("bekk", "bekk"))
        with pytest.raises(DataError):
            small_config(delta=1.0)
        with pytest.raises(DataError):
            small_config(sim_len=1)
        with pytest.raises(DataError):
            small_config(starts=0)

    def test_the_fits_draw_from_the_run_seed(self):
        opts = small_config().opts
        assert (opts.n_starts, opts.seed) == (1, 7)


@st.composite
def model_parts(draw):
    """A generator for one model's numbers, its mean of any finite floats,
    and a target or None, as a params document records them."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=n, max_size=n)))
    target = None
    if draw(st.booleans()):
        panel = gaussian_panel(rng, t_len=60, n=2)
        target = build_target(sample_moments(panel), draw(st.sampled_from([0.1, 0.9])))
    return rng, n, mu, target


def target_stub(target):
    return None if target is None else {
        "delta": target.delta, "pd_adjusted": target.pd_adjusted}


def read_back(doc):
    """params_from_document of ``doc`` as written to and read from a file."""
    return params_from_document(json.loads(render_json(doc)))


class TestParamsDocuments:
    @settings(max_examples=60, deadline=None)
    @given(model_parts(), st.booleans())
    def test_bekk_round_trip(self, parts, with_h1):
        rng, n, mu, target = parts
        c = np.tril(rng.uniform(-1.0, 1.0, (n, n)), k=-1) + np.diag(rng.uniform(0.1, 1.0, n))
        p = BekkParams(c_lower=c, a_diag=rng.uniform(0.0, 0.7, n),
                       b_diag=rng.uniform(0.0, 0.7, n))
        h1 = random_spd(rng, n)
        h1 = 0.5 * (h1 + h1.T)
        doc = bekk_document(p, mu, h1, target)
        if not with_h1:
            doc["h1"] = None  # simulate then starts from the unconditional covariance
        assert doc["target"] == target_stub(target)
        model, q, mu2, h12 = read_back(doc)
        assert model == "bekk"
        assert (h12 is None) == (not with_h1)
        back = bekk_document(q, mu2, h1 if h12 is None else h12, target)
        if h12 is None:
            back["h1"] = None
        assert render_json(back) == render_json(doc)

    @settings(max_examples=60, deadline=None)
    @given(model_parts())
    def test_dcc_round_trip(self, parts):
        rng, n, mu, target = parts
        uni = tuple(
            Garch11Params(omega=float(w), alpha=float(a), beta=float(b))
            for w, a, b in zip(rng.uniform(1e-6, 1.0, n), *rng.uniform(0.0, 0.49, (2, n)))
        )
        theta1, theta2 = map(float, rng.uniform(0.0, 0.49, 2))
        p = DccParams(univariate=uni, theta1=theta1, theta2=theta2, q_bar=random_corr(rng, n))
        doc = dcc_document(p, mu, target)
        assert doc["target"] == target_stub(target)
        model, q, mu2, h1 = read_back(doc)
        assert model == "dcc" and h1 is None
        assert render_json(dcc_document(q, mu2, target)) == render_json(doc)

    def test_malformed_documents(self):
        with pytest.raises(DataError):
            params_from_document({"model": "bekk", "n": 2})
        with pytest.raises(DataError):
            params_from_document({"model": "mystery", "n": 1, "mu": [0.0]})
        doc = bekk_document(bekk2(), np.zeros(2), np.eye(2), None)
        doc["c_lower"] = doc["c_lower"][:-1]  # drop an entry
        with pytest.raises(DataError):
            params_from_document(doc)

    @pytest.mark.parametrize("model, n, message", [
        ("bekk", 2.7, "n must be a positive integer, got 2.7"),
        ("bekk", 2.0, "n must be a positive integer, got 2.0"),
        ("bekk", True, "n must be a positive integer, got True"),
        ("bekk", "2", "n must be a positive integer, got '2'"),
        ("bekk", 0, "n must be a positive integer, got 0"),
        ("dcc", True, "n must be a positive integer, got True"),
        ("dcc", 5, "n is 5 but the document has 2 series"),
        ("dcc", 1, "n is 1 but the document has 2 series"),
    ])
    def test_n_is_a_positive_integer_counting_the_series(self, model, n, message):
        g = Garch11Params(omega=1e-5, alpha=0.05, beta=0.9)
        doc = (bekk_document(bekk2(), np.zeros(2), np.eye(2), None) if model == "bekk" else
               dcc_document(DccParams((g, g), 0.05, 0.9, np.eye(2)), np.zeros(2), None))
        with pytest.raises(DataError) as err:
            params_from_document({**doc, "n": n})
        assert str(err.value) == message

    @pytest.mark.parametrize("model, edit, message", [
        ("dcc", {"theta1": "0.05"}, "theta1 must hold finite JSON numbers, got '0.05'"),
        ("dcc", {"univariate": [{"omega": "1e-5", "alpha": 0.05, "beta": 0.9}] * 2},
         "omega must hold finite JSON numbers, got '1e-5'"),
        ("dcc", {"mu": [True, 0.1]}, "mu must hold finite JSON numbers, got True"),
        ("dcc", {"q_bar": [[1.0, 0.3], [0.3]]}, "q_bar must be (2, 2), got (2,)"),
        ("dcc", {"theta2": [0.9]}, "theta2 must be a number, got (1,)"),
        ("bekk", {"a_diag": ["0.3", "0.3"]}, "a_diag must hold finite JSON numbers, got '0.3'"),
        ("bekk", {"h1": [[1.0, 0.0], [0.0, True]]}, "h1 must hold finite JSON numbers, got True"),
        ("bekk", {"mu": [float("nan"), 0.0]}, "mu must hold finite JSON numbers, got nan"),
        ("bekk", {"mu": [0.0, float("inf")]}, "mu must hold finite JSON numbers, got inf"),
        ("bekk", {"c_lower": [0.1, 0.0, [0.1]]}, "c_lower must hold finite JSON numbers, got [0.1]"),
    ])
    def test_every_number_is_a_finite_json_number_of_its_shape(self, model, edit, message):
        # fit writes only JSON numbers; a string, a boolean, NaN or Infinity
        # (which Python's json writes and reads) is refused, naming the field
        g = Garch11Params(omega=1e-5, alpha=0.05, beta=0.9)
        doc = (bekk_document(bekk2(), np.zeros(2), np.eye(2), None) if model == "bekk" else
               dcc_document(DccParams((g, g), 0.05, 0.9, np.eye(2)), np.zeros(2), None))
        with pytest.raises(DataError) as err:
            params_from_document(json.loads(json.dumps({**doc, **edit})))
        assert str(err.value) == message

    def test_integers_are_numbers(self):
        doc = bekk_document(bekk2(), np.zeros(2), np.eye(2), None)
        model, params, mu, h1 = read_back({**doc, "mu": [0, 1], "h1": [[1, 0], [0, 1]]})
        assert mu.tolist() == [0.0, 1.0] and mu.dtype == float
        assert np.array_equal(h1, np.eye(2))

    def test_an_asymmetric_h1_is_named(self):
        doc = bekk_document(bekk2(), np.zeros(2), np.eye(2), None)
        with pytest.raises(ShapeError) as err:
            params_from_document({**doc, "h1": [[1.0, 0.1], [0.2, 1.0]]})
        assert str(err.value) == "h1: matrix is not symmetric (max asymmetry 1.000e-01)"

    def test_a_bekk_document_without_series_is_refused(self):
        doc = {"model": "bekk", "n": 0, "c_lower": [], "a_diag": [], "b_diag": [], "mu": []}
        with pytest.raises(DataError, match="^n must be a positive integer, got 0$"):
            params_from_document(doc)


@pytest.fixture(scope="module")
def panel():
    return gaussian_panel(12, t_len=150, n=2)


@pytest.fixture(scope="module")
def report(panel):
    return run_evaluation(panel, small_config())


class TestRunEvaluation:
    def test_document_layout(self, report):
        doc = report
        assert sorted(doc) == ["config", "models", "observed", "panel", "target"]
        assert sorted(doc["models"]) == ["bekk", "dcc"]
        for block in doc["models"].values():
            assert sorted(block) == [
                "comparison",
                "fit",
                "losses",
                "params",
                "simulated",
            ]
            assert block["losses"]["frobenius_vs_target"] > 0.0
            assert block["losses"]["kl_simulated"] >= 0.0
        assert doc["panel"] == {"labels": ["A1", "A2"], "n": 2, "t": 150}
        assert doc["config"]["sim_len"] == 60

    def test_config_records_every_setting(self, report):
        # one key per RunConfig argument, so no setting of a run goes unrecorded
        init = [f.name for f in dataclasses.fields(RunConfig) if f.init]
        assert init == ["input", "models", "delta", "seed", "sim_len", "starts"]
        assert sorted(report["config"]) == sorted(init)

    def test_json_rendering_is_deterministic(self, panel, report):
        again = run_evaluation(panel, small_config())
        assert render_json(again) == render_json(report)
        # keys are sorted so byte equality is meaningful
        assert render_json(report).startswith('{\n  "config"')

    def test_fits_agree_with_fit_only_path(self, panel, report):
        blocks = run_fits(panel, small_config())
        for kind, block in blocks.items():
            full = report["models"][kind]
            assert json.dumps(block["params"], sort_keys=True) == json.dumps(
                full["params"], sort_keys=True
            )
            assert json.dumps(block["fit"], sort_keys=True) == json.dumps(
                full["fit"], sort_keys=True
            )

    def test_simulated_kl_is_reproducible_from_params(self, panel, report):
        cfg = small_config()
        moments = sample_moments(panel)
        target = build_target(moments, cfg.delta)
        block = report["models"]["bekk"]
        _, params, mu, h1 = params_from_document(block["params"])
        sim = bekk_simulate(
            params, mu, cfg.sim_len, cfg.seed, h1=moments.cov, labels=panel.labels
        )
        want = kl_divergence(target.sigma_hat, sample_moments(sim).cov)
        assert np.isclose(block["losses"]["kl_simulated"], want, rtol=1e-12)

    def test_text_rendering(self, report):
        text = render_text_table(report)
        assert "bekk" in text and "dcc" in text
        assert "observed maximal cliques" in text
