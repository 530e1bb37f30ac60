import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillsim.config import ConfigError, SECTIONS, config_hash, parse_config
from spillsim.dynamics import LinearUnit, MeanFieldThreshold, ZeroPeer

MINIMAL = """
[population]
n_units = 10

[design]
kind = bernoulli
probs = 0.0, 0.2, 0.4, 0.8
"""


def test_minimal_config_defaults():
    config = parse_config(MINIMAL)
    assert config.n_units == 10
    assert config.n_rounds == 4
    assert isinstance(config.dynamics.unit, LinearUnit)
    assert config.dynamics.unit.y_coef == 1.0
    assert config.dynamics.unit.w_coef == 0.0
    assert isinstance(config.dynamics.peer, ZeroPeer)
    assert config.dynamics.noise_sd == 0.0
    assert config.estimators == ("dm", "ht", "ese_basic")
    assert config.n_reps == 1
    assert config.weights.kind == "dense_gaussian"


def test_ramp_probs_default_for_four_rounds():
    config = parse_config("[population]\nn_units = 5\n\n[design]\nkind = bernoulli\n")
    assert config.design.probs == (0.0, 0.2, 0.4, 0.8)


def test_zero_units_names_key():
    with pytest.raises(ConfigError, match="population.n_units"):
        parse_config("[population]\nn_units = 0\n")


def test_probs_length_mismatch_names_key():
    text = "[population]\nn_units = 5\nn_rounds = 3\n\n[design]\nkind = bernoulli\nprobs = 0.1, 0.2\n"
    with pytest.raises(ConfigError, match="design.probs"):
        parse_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="population.n_unitz"):
        parse_config("[population]\nn_unitz = 5\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="plotting"):
        parse_config("[plotting]\ncolor = red\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[population]\nn_units = 5\nn_units = 6\n")


def test_assignment_outside_section_rejected():
    with pytest.raises(ConfigError, match="before any"):
        parse_config("n_units = 5\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("[population]\njust some words\n")


def test_type_mismatch_names_key():
    with pytest.raises(ConfigError, match="population.n_units"):
        parse_config("[population]\nn_units = ten\n")


def test_cross_field_inconsistency_cluster_estimator():
    text = MINIMAL + "\n[estimators]\nuse = ese_cluster\n"
    with pytest.raises(ConfigError, match="clustered"):
        parse_config(text)


def test_threshold_dynamics_parse():
    text = MINIMAL + "\n[dynamics]\nexposure = threshold\ntau = 0.9\nstrength = 2.0\n"
    config = parse_config(text)
    assert isinstance(config.dynamics.exposure, MeanFieldThreshold)
    assert config.dynamics.exposure.tau == 0.9


def test_threshold_tau_bounds():
    text = MINIMAL + "\n[dynamics]\nexposure = threshold\ntau = 1.0\n"
    with pytest.raises(ConfigError, match="tau"):
        parse_config(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # `trend` is the one spelling of a term in the round index t.
        (MINIMAL + "\n[dynamics]\nx_coef = 0.37\n",
         "line 10: dynamics.x_coef is not read with unit = linear, peer = zero, exposure = weighted_sum"),
        # Each ESE estimator has one feature set.
        *((MINIMAL + f"\n[estimators]\nfeatures_{name} = intercept, own_treatment\n",
           f"line 10: estimators.features_{name} is not read")
          for name in ("ese_basic", "ese_cluster", "ese_influencer")),
        # A file's design is Bernoulli.
        (MINIMAL.replace("kind = bernoulli", "kind = constant"), "line 6: design.kind must be bernoulli, got 'constant'"),
        (MINIMAL + "value = 1\n", "line 8: design.value is not read with kind = bernoulli"),
    ],
    ids=["x_coef", "features_ese_basic", "features_ese_cluster", "features_ese_influencer", "constant_design",
         "design_value"],
)
def test_removed_options_are_refused_with_their_line(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_unknown_estimator_named():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(MINIMAL + "\n[estimators]\nuse = dm, bogus\n")


def test_influencer_weights_parse():
    text = """
[population]
n_units = 10

[weights]
kind = influencer
influencers = 0, 3
w_inf = 1.0
w_base = 0.2

[design]
kind = bernoulli
probs = 0.0, 0.2, 0.4, 0.8
"""
    config = parse_config(text)
    assert config.weights.params["influencers"] == (0, 3)


def test_comments_and_blank_lines_ignored():
    text = "# top comment\n\n[population]\n# inline\nn_units = 4\nn_rounds = 2\n\n[design]\n# inline\nprobs = 0.5, 1\n"
    config = parse_config(text)
    assert config.n_units == 4
    assert config.design.probs == (0.5, 1.0)


def test_config_hash_stable():
    assert config_hash(MINIMAL) == config_hash(MINIMAL)
    assert config_hash(MINIMAL) != config_hash(MINIMAL + " ")


@given(
    st.sampled_from(SECTIONS),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
)
@settings(max_examples=60)
def test_fuzzed_unknown_keys_always_fail(section, key):
    # No section reads a key that starts with "zz".
    text = f"[population]\nn_units = 10\n[{section}]\nzz{key} = 1\n"
    with pytest.raises(ConfigError, match=rf"^line 4: {section}\.zz{key} is not read"):
        parse_config(text)


def _weights_config(n_units, weights):
    return f"[population]\nn_units = {n_units}\n\n[weights]\n{weights}\n\n[design]\nkind = bernoulli\n"


@pytest.mark.parametrize(
    "text, pattern",
    [
        (_weights_config(10, "kind = clustered\nmu = 5.0"), r"weights\.mu is not read with kind = clustered"),
        (_weights_config(10, "kind = dense_gaussian\nn_clusters = 2"), r"weights\.n_clusters .* kind = dense_gaussian"),
        (
            MINIMAL + "\n[dynamics]\nexposure = weighted_sum\ntau = 0.3\n",
            r"dynamics\.tau is not read with .*exposure = weighted_sum",
        ),
        (MINIMAL + "\n[dynamics]\nunit = linear\nscale = 2.0\n", r"dynamics\.scale is not read with unit = linear"),
        # No saturating unit and no `scale`: each is refused with its line.
        (MINIMAL + "\n[dynamics]\nunit = saturating\n", r"^line 10: dynamics\.unit must be linear, got 'saturating'$"),
        (MINIMAL + "\n[dynamics]\nscale = 2.0\n", r"^line 10: dynamics\.scale is not read with unit = linear, "),
        (MINIMAL + "\n[dynamics]\npeer = zero\npeer_w = 1.0\n", r"dynamics\.peer_w is not read with .*peer = zero"),
        (MINIMAL + "value = 1\n", r"design\.value is not read with kind = bernoulli"),
    ],
)
def test_keys_the_chosen_kind_never_reads_are_rejected(text, pattern):
    with pytest.raises(ConfigError, match=pattern):
        parse_config(text)


@pytest.mark.parametrize(
    "n_units, weights, pattern",
    [
        (1500, "kind = influencer\ninfluencers = 0, 1500", r"weights\.influencers: .* must lie in 0\.\.1499"),
        (1500, "kind = influencer\ninfluencers = 4, 4", r"weights\.influencers: influencer ids must be distinct"),
        (1500, "kind = influencer", r"weights\.influencers: influencer set must be non-empty"),
        (1200, "kind = clustered\nn_clusters = 5000", r"weights\.n_clusters: cannot split 1200 units into 5000"),
        (1200, "kind = clustered\nn_clusters = 0", r"weights\.n_clusters: need at least one cluster"),
        (10, "kind = ring", r"weights\.kind must be one of dense_gaussian, clustered, influencer; got 'ring'"),
        # No explicit kind and no `matrix_path`: each is refused with its line.
        (10, "kind = explicit", r"^line 5: weights\.kind must be one of dense_gaussian, clustered, influencer; "
                                r"got 'explicit'$"),
        (10, "matrix_path = w.csv", r"^line 5: weights\.matrix_path is not read with kind = dense_gaussian$"),
        (10, "mu = inf", r"weights\.mu must be a finite number"),
    ],
)
def test_bad_weight_parameters_fail_at_parse_time_naming_the_key(n_units, weights, pattern):
    with pytest.raises(ConfigError, match=pattern):
        parse_config(_weights_config(n_units, weights))


@pytest.mark.parametrize(
    "extra, pattern",
    [
        ("\n[dynamics]\nnoise_sd = -0.5\n", r"dynamics\.noise_sd: noise_sd must be non-negative"),
        ("\n[dynamics]\nexposure = threshold\ntau = 0.0\n", r"dynamics\.tau: threshold tau"),
        ("\n[run]\nreps = 0\n", r"run\.reps: replication count must be at least 1"),
        ("baseline_sd = -1.0\n", r"population\.baseline_sd: must be finite and non-negative"),
    ],
)
def test_dataclass_errors_are_prefixed_with_the_key(extra, pattern):
    text = MINIMAL + extra if extra.startswith("\n[") else MINIMAL.replace("n_units = 10\n", "n_units = 10\n" + extra)
    with pytest.raises(ConfigError, match=pattern):
        parse_config(text)


def test_probs_out_of_range_names_key():
    text = MINIMAL.replace("0.0, 0.2, 0.4, 0.8", "0.0, 0.2, 1.5, 0.8")
    with pytest.raises(ConfigError, match=r"design\.probs: assignment probability 1\.5 outside \[0, 1\]"):
        parse_config(text)


def test_weight_keys_come_from_the_kind_table():
    from spillsim.weights import WEIGHT_KINDS

    config = parse_config(_weights_config(10, "kind = clustered\nw_in = 0.5"))
    assert set(config.weights.params) == set(WEIGHT_KINDS["clustered"].keys)
    assert tuple(config.weights.params[key] for key in ("n_clusters", "w_in", "w_out")) == (2, 0.5, 0.0)
    with pytest.raises(AttributeError, match="mu"):
        config.weights.mu
