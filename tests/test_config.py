import json
import re
from dataclasses import fields, is_dataclass, replace

import pytest

from v2isim import (
    ChannelParams,
    ConfigError,
    Policy,
    ScenarioConfig,
    TierRadio,
    config_from_dict,
    derive_run_seed,
    load_config,
    run_once,
)


class TestDefaults:
    def test_empty_document_yields_table_defaults(self):
        cfg = config_from_dict({})
        assert cfg.area_km2 == 1.0
        assert cfg.lte_density_per_km2 == 4.0
        assert cfg.mmw_density_grid_per_km2 == tuple(float(x) for x in range(4, 84, 4))
        assert cfg.n_sim == 2000
        assert cfg.snr_threshold_db == -5.0
        assert cfg.class_requirements_bps == (1e6, 10e6, 100e6, 1200e6)
        assert cfg.class_probabilities == (0.25, 0.25, 0.25, 0.25)
        assert cfg.channel.lte.tx_power_dbm == 46.0
        assert cfg.channel.mmw.tx_power_dbm == 27.0
        assert cfg.channel.lte.bandwidth_hz == 20e6
        assert cfg.channel.mmw.bandwidth_hz == 1e9
        assert cfg.channel.lte.carrier_hz == 2.4e9
        assert cfg.channel.mmw.carrier_hz == 28e9
        assert cfg.channel.mmw.array_elements == 64
        assert cfg.channel.vn_array_elements == 16
        assert cfg.channel.bs_height_m == 30.0
        assert cfg.channel.vn_height_m == 2.0
        assert cfg.channel.noise_psd_dbm_per_hz == -174.0

    def test_one_policy_set(self):
        # the policies, in the order that seeds runs and sorts rows, are the
        # Policy enum's; v2isim.policy.Policy is the same class
        import v2isim.config
        import v2isim.policy

        assert v2isim.config.POLICY_NAMES == ("MS", "MR", "RA")
        assert v2isim.policy.Policy is v2isim.config.Policy is Policy

    def test_measurement_region_defaults_to_central_square(self):
        cfg = config_from_dict({})
        assert cfg.resolved_measurement_region() == (250.0, 750.0, 250.0, 750.0)

    def test_region_scales_with_area(self):
        cfg = config_from_dict({"area_km2": 4.0})
        assert cfg.resolved_measurement_region() == (500.0, 1500.0, 500.0, 1500.0)


class TestValidation:
    def test_degenerate_probabilities_accepted(self):
        cfg = config_from_dict({"class_probabilities": [0.5, 0.5, 0.0, 0.0]})
        assert cfg.class_probabilities == (0.5, 0.5, 0.0, 0.0)

    def test_zero_n_sim_names_key(self):
        with pytest.raises(ConfigError, match="n_sim"):
            config_from_dict({"n_sim": 0})

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="class_probabilities"):
            config_from_dict({"class_probabilities": [0.5, 0.5, 0.5, 0.5]})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key: lte_power"):
            config_from_dict({"lte_power": 46})

    def test_unknown_nested_key_has_dotted_path(self):
        with pytest.raises(ConfigError, match="channel.lte.gain"):
            config_from_dict({"channel": {"lte": {"gain": 3}}})

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="policies"):
            config_from_dict({"policies": ["MS", "XX"]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="mmw_density_grid_per_km2"):
            config_from_dict({"mmw_density_grid_per_km2": []})

    def test_duplicate_density_rejected(self):
        # a campaign is reduced cell by cell; a repeated density would
        # repeat the same seeded runs as a second cell
        with pytest.raises(ConfigError, match="mmw_density_grid_per_km2"):
            config_from_dict({"mmw_density_grid_per_km2": [4, 8, 4]})

    def test_negative_density_rejected(self):
        with pytest.raises(ConfigError, match="lte_density_per_km2"):
            config_from_dict({"lte_density_per_km2": -1})

    @pytest.mark.parametrize("grid,message", [
        ("[-4]", "mmw_density_grid_per_km2: densities must be >= 0"),
        ("[Infinity]", "mmw_density_grid_per_km2[0]: must be finite"),
        ("[4, -Infinity]", "mmw_density_grid_per_km2[1]: must be finite"),
        ("[NaN]", "mmw_density_grid_per_km2[0]: must be finite"),
    ])
    def test_grid_density_must_be_finite_and_non_negative(self, grid, message,
                                                          tmp_path):
        # a non-finite entry is named by its index before any range check
        path = tmp_path / "grid.json"
        path.write_text('{"mmw_density_grid_per_km2": %s}' % grid)
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == message

    @pytest.mark.parametrize("grid,duplicate", [
        ((4.0, 4.0), True), ((4.0, 4.0000001), True), ((4.0, 4.0000004), True),
        ((4.0, 4.000001), False), ((0.0, -0.0), True), ((80.0, 79.9999999), True),
        ((0.5, 0.5000006), False),
    ])
    def test_duplicate_is_a_density_key_the_seeds_share(self, grid, duplicate):
        # two densities are one cell of the campaign exactly when the run
        # seeds know them by the same key
        first, second = (derive_run_seed(1, lam, Policy.MR, 0).entropy for lam in grid)
        assert (first == second) == duplicate
        if duplicate:
            with pytest.raises(ConfigError, match="mmw_density_grid_per_km2: duplicate entry"):
                ScenarioConfig(mmw_density_grid_per_km2=grid)
        else:
            assert ScenarioConfig(mmw_density_grid_per_km2=grid).mmw_density_grid_per_km2 == grid

    @pytest.mark.parametrize("key,short", [
        ("class_probabilities", (0.5, 0.5)),
        ("class_requirements_bps", (1e6, 1e7, 1e8, 1e9, 1e10)),
    ])
    def test_class_vectors_need_four_entries(self, key, short):
        # a ScenarioConfig built in Python skips the parser's length check
        with pytest.raises(ConfigError, match=f"{key}: expected 4 entries"):
            ScenarioConfig(**{key: short})

    def test_shadow_fading_reserved(self):
        # shadow fading is not modelled; the key is not part of the schema
        for value in (True, False):
            with pytest.raises(ConfigError,
                               match="unknown key: channel.shadow_fading_enabled"):
                config_from_dict({"channel": {"shadow_fading_enabled": value}})

    def test_bad_region_rejected(self):
        with pytest.raises(ConfigError, match="measurement_region_m"):
            config_from_dict({"measurement_region_m": [700, 200, 250, 750]})

    def test_requirement_vector_length(self):
        with pytest.raises(ConfigError, match="class_requirements_bps"):
            config_from_dict({"class_requirements_bps": [1e6, 1e7]})

    @pytest.mark.parametrize("key,bad", [
        ("channel.lte.bandwidth_hz", 0.0), ("channel.mmw.bandwidth_hz", -1e9),
        ("channel.lte.carrier_hz", 0.0), ("channel.mmw.carrier_hz", -28e9),
        ("channel.lte.array_elements", 64), ("channel.mmw.array_elements", 0),
        ("channel.bs_height_m", -1.0), ("channel.vn_height_m", -0.5),
    ])
    def test_tier_radio_and_height_checks_name_the_key(self, key, bad):
        with pytest.raises(ConfigError) as error:
            config_from_dict(nested(key, bad))
        assert names_key(str(error.value), key), str(error.value)

    def test_wrong_type_reports_key(self):
        with pytest.raises(ConfigError, match="area_km2"):
            config_from_dict({"area_km2": "one"})


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"master_seed": 42}))
        assert load_config(path).master_seed == 42

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_config(path) == ScenarioConfig()

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="missing.json"):
            load_config("missing.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestEcho:
    def test_to_dict_round_trips(self):
        cfg = config_from_dict({"n_sim": 5, "channel": {"mmw": {"tx_power_dbm": 30}}})
        doc = cfg.to_dict()
        again = config_from_dict(doc)
        assert again.n_sim == 5
        assert again.channel.mmw.tx_power_dbm == 30.0
        assert again == cfg.resolved()

    def test_resolved_region_echoed(self):
        doc = config_from_dict({}).to_dict()
        assert doc["measurement_region_m"] == (250.0, 750.0, 250.0, 750.0)
        # json writes a tuple as an array, so the echo is a JSON document
        assert json.loads(json.dumps(doc))["measurement_region_m"] == [250.0, 750.0, 250.0, 750.0]


def leaf_fields(obj, prefix=""):
    """(dotted key, default value) of every settable leaf of a config."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaf_fields(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def wrong_type(default):
    """A JSON value of the wrong type for a field with this default."""
    if isinstance(default, tuple):
        return [wrong_type(default[0])] * len(default)
    return {float: "1.0", int: 1.5, str: 7}.get(type(default), "x")


def nested(key, value):
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


LEAVES = sorted(leaf_fields(ScenarioConfig()))

# every leaf, the optional ones set so that their type shows
TYPED_LEAVES = sorted(leaf_fields(
    ScenarioConfig(channel=ChannelParams(los_probability_override=0.5)).resolved()))

FLOAT_LEAVES = [(key, value) for key, value in TYPED_LEAVES
                if isinstance(value, float)
                or (isinstance(value, tuple) and isinstance(value[0], float))]


# the float leaves whose default is a whole number, which an int can hold
INTEGRAL_FLOAT_LEAVES = [
    (key, value) for key, value in FLOAT_LEAVES
    if all(float(v).is_integer() for v in (value if isinstance(value, tuple) else (value,)))]


def with_first(value, bad):
    """``value`` with ``bad`` in place of the scalar or the first entry."""
    return [bad, *value[1:]] if isinstance(value, tuple) else bad


def names_key(message, key):
    """True when the error's leading key is ``key`` or one of its entries."""
    return message.split(":")[0].split("[")[0] == key


class TestSchema:
    @pytest.mark.parametrize("key,default", LEAVES, ids=[k for k, _ in LEAVES])
    def test_wrong_type_names_dotted_key(self, key, default):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_dict(nested(key, wrong_type(default)))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")],
                             ids=["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("key,value", FLOAT_LEAVES, ids=[k for k, _ in FLOAT_LEAVES])
    def test_non_finite_float_names_dotted_key(self, key, value, bad, tmp_path):
        # through a JSON file, which spells these Infinity, -Infinity and NaN
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(nested(key, with_first(value, bad))))
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert names_key(str(error.value), key), str(error.value)

    def test_float_leaf_count(self):
        # 10 scenario fields, 16 channel scalars, 3 radio floats per tier
        assert len(FLOAT_LEAVES) == 32

    def test_leaf_count(self):
        # 15 scenario fields, 17 channel scalars, 4 radio fields per tier
        assert len(LEAVES) == 40

    def test_echo_keys_are_the_fields(self):
        doc = ScenarioConfig().to_dict()
        assert set(doc) == {f.name for f in fields(ScenarioConfig)}
        assert set(doc["channel"]) == {f.name for f in fields(ChannelParams)}
        for tier in ("lte", "mmw"):
            assert set(doc["channel"][tier]) == {f.name for f in fields(TierRadio)}


# one invalid value for every check of validate_config, with its message
INVALID = [
    ("area_km2", 0.0, "area_km2: must be > 0"),
    ("lte_density_per_km2", -1.0, "lte_density_per_km2: must be >= 0"),
    ("mmw_density_grid_per_km2", (), "mmw_density_grid_per_km2: must be non-empty"),
    ("mmw_density_grid_per_km2", (4.0, -4.0),
     "mmw_density_grid_per_km2: densities must be >= 0"),
    ("mmw_density_grid_per_km2", (4.0, float("inf")),
     "mmw_density_grid_per_km2[1]: must be finite"),
    # its seed key, round(lambda * 1e6), would overflow
    ("mmw_density_grid_per_km2", (4.0, 1e308),
     "mmw_density_grid_per_km2: densities must be < 1e302"),
    ("mmw_density_grid_per_km2", (4.0, 8.0, 4.0), "mmw_density_grid_per_km2: duplicate entry"),
    # the run seeds key a density by round(lambda * 1e6), so these would be
    # two rows of the same runs
    ("mmw_density_grid_per_km2", (4.0, 4.0000001), "mmw_density_grid_per_km2: duplicate entry"),
    ("policies", (), "policies: must be non-empty"),
    ("policies", ("MS", "XX"), "policies: unknown policy 'XX'"),
    ("policies", ("MS", "MS"), "policies: duplicate entry"),
    ("vn_mode", "GRID", "vn_mode: must be one of ('PER_MMW_BS', 'FIXED')"),
    ("vns_per_mmw_bs", -1.0, "vns_per_mmw_bs: must be >= 0"),
    ("fixed_vn_count", -1, "fixed_vn_count: must be >= 0"),
    ("n_sim", 0, "n_sim: must be >= 1"),
    ("master_seed", -1, "master_seed: must be >= 0"),
    ("class_requirements_bps", (1e6, 1e7), "class_requirements_bps: expected 4 entries, got 2"),
    ("class_probabilities", (0.5, 0.5), "class_probabilities: expected 4 entries, got 2"),
    ("class_requirements_bps", (1e6, -1e7, 1e8, 1e9),
     "class_requirements_bps: rates must be >= 0"),
    ("class_probabilities", (-0.25, 0.5, 0.5, 0.25), "class_probabilities: must be >= 0"),
    ("class_probabilities", (0.5, 0.5, 0.5, 0.5),
     "class_probabilities: must sum to 1 within 1e-9"),
    ("no_change_window_multiplier", 0.0, "no_change_window_multiplier: must be > 0"),
    ("pick_cap_multiplier", -1.0, "pick_cap_multiplier: must be > 0"),
    ("measurement_region_m", (700.0, 200.0, 250.0, 750.0),
     "measurement_region_m: must be a non-empty rectangle inside the area"),
    ("channel.lte.bandwidth_hz", 0.0, "channel.lte.bandwidth_hz: must be > 0"),
    ("channel.mmw.carrier_hz", -28e9, "channel.mmw.carrier_hz: must be > 0"),
    ("channel.lte.array_elements", 64,
     "channel.lte.array_elements: must be 1 (LTE is omnidirectional)"),
    ("channel.mmw.array_elements", 0, "channel.mmw.array_elements: must be >= 1"),
    ("channel.vn_array_elements", 0, "channel.vn_array_elements: must be >= 1"),
    ("channel.min_distance_m", 0.0, "channel.min_distance_m: must be > 0"),
    ("channel.vn_height_m", -0.5, "channel.vn_height_m: must be >= 0"),
    ("channel.los_probability_override", 1.5,
     "channel.los_probability_override: must lie in [0, 1]"),
    ("snr_threshold_db", float("nan"), "snr_threshold_db: must be finite"),
]


def keyword(key, value):
    """The ScenarioConfig keyword argument that sets dotted ``key``."""
    def set_in(obj, parts):
        if not parts:
            return value
        return replace(obj, **{parts[0]: set_in(getattr(obj, parts[0]), parts[1:])})
    head, *rest = key.split(".")
    return {head: set_in(getattr(ScenarioConfig(), head), rest)}


class TestOneGate:
    """Every way of building a ScenarioConfig runs the same checks."""

    @pytest.mark.parametrize("key,bad,message", INVALID,
                             ids=[f"{k}={v!r}" for k, v, _ in INVALID])
    def test_every_path_raises_the_same_message(self, key, bad, message):
        builds = {
            "config_from_dict": lambda: config_from_dict(nested(key, bad)),
            "constructor": lambda: ScenarioConfig(**keyword(key, bad)),
            "replace": lambda: replace(ScenarioConfig(), **keyword(key, bad)),
        }
        for path, build in builds.items():
            with pytest.raises(ConfigError) as error:
                build()
            assert str(error.value) == message, path

    def test_int_too_large_for_a_float_is_not_finite(self):
        # float() of it raises OverflowError, which would not name the key
        builds = (lambda: config_from_dict({"area_km2": 10**400}),
                  lambda: ScenarioConfig(area_km2=10**400),
                  lambda: replace(ScenarioConfig(), area_km2=-(10**400)))
        for build in builds:
            with pytest.raises(ConfigError, match="^area_km2: must be finite$"):
                build()

    def test_no_run_starts_from_an_invalid_config(self):
        # a NaN threshold puts no link in outage, so this run would attach
        # every vehicle and report converged after one pick; a non-finite
        # value is named before any range check
        with pytest.raises(ConfigError, match="snr_threshold_db: must be finite"):
            run_once(ScenarioConfig(no_change_window_multiplier=-5.0,
                                    snr_threshold_db=float("nan"), n_sim=0),
                     40.0, Policy.MR, 0)

    @pytest.mark.parametrize("key,default", TYPED_LEAVES,
                             ids=[k for k, _ in TYPED_LEAVES])
    def test_wrong_type_raises_the_parser_message(self, key, default):
        # the JSON value as a Python value: a tuple field gets a tuple
        bad = wrong_type(default)
        with pytest.raises(ConfigError) as parsed:
            config_from_dict(nested(key, bad))
        value = tuple(bad) if isinstance(bad, list) else bad
        builds = {
            "constructor": lambda: ScenarioConfig(**keyword(key, value)),
            "replace": lambda: replace(ScenarioConfig(), **keyword(key, value)),
        }
        for path, build in builds.items():
            with pytest.raises(ConfigError) as error:
                build()
            assert str(error.value) == str(parsed.value), path

    @pytest.mark.parametrize("kwargs,message", [
        # this one used to build and then die in run_campaign with a TypeError
        (dict(n_sim=2.5, mmw_density_grid_per_km2=(4.0,), policies=("MS",)),
         "n_sim: expected an integer, got 2.5"),
        (dict(mmw_density_grid_per_km2=[4.0]),
         "mmw_density_grid_per_km2: expected a tuple, got [4.0]"),
        (dict(measurement_region_m="x"), "measurement_region_m: expected a tuple, got 'x'"),
        (dict(channel=5), "channel: expected a ChannelParams, got 5"),
        (dict(area_km2=True), "area_km2: expected a number, got True"),
        (dict(master_seed=True), "master_seed: expected an integer, got True"),
    ])
    def test_wrong_type_built_in_python_names_the_key(self, kwargs, message):
        with pytest.raises(ConfigError) as error:
            ScenarioConfig(**kwargs)
        assert str(error.value) == message

    def test_int_is_a_number(self):
        cfg = ScenarioConfig(area_km2=1, class_probabilities=(1, 0, 0, 0))
        assert cfg.area_km2 == 1 and type(cfg.area_km2) is float
        assert all(type(p) is float for p in cfg.class_probabilities)

    @pytest.mark.parametrize("key,default", INTEGRAL_FLOAT_LEAVES,
                             ids=[k for k, _ in INTEGRAL_FLOAT_LEAVES])
    def test_int_in_a_float_field_echoes_as_a_float(self, key, default):
        # equal configs write equal `# config` bytes, whichever path built them
        whole = tuple(map(int, default)) if isinstance(default, tuple) else int(default)
        echo = json.dumps(ScenarioConfig().to_dict())
        builds = {
            "config_from_dict": lambda: config_from_dict(nested(
                key, list(whole) if isinstance(whole, tuple) else whole)),
            "constructor": lambda: ScenarioConfig(**keyword(key, whole)),
            "replace": lambda: replace(ScenarioConfig(), **keyword(key, whole)),
        }
        for path, build in builds.items():
            assert json.dumps(build().to_dict()) == echo, path

    def test_int_los_override_echoes_as_a_float(self):
        cfg = ScenarioConfig(channel=ChannelParams(los_probability_override=1))
        assert cfg.to_dict() == config_from_dict(
            {"channel": {"los_probability_override": 1.0}}).to_dict()
        assert type(cfg.channel.los_probability_override) is float
