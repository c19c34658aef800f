import re
from pathlib import Path

import numpy as np
import pytest

from pnmimo.config import ConfigError, SystemConfig, load_config


class TestValidation:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.beta == 5.0
        assert np.allclose(cfg.powers, 0.1)

    def test_snr_to_noise_variance(self):
        cfg = SystemConfig(M=50, K=10, snr_db=10.0)
        # per-UE SNR is p_k / sigma_w^2 with p_k = 1/K
        assert cfg.sigma_w2 == pytest.approx(0.1 / 10.0)

    def test_explicit_noise_variance(self):
        cfg = SystemConfig(snr_db=None, sigma_w2_value=0.25)
        assert cfg.sigma_w2 == 0.25

    def test_exactly_one_noise_handle(self):
        with pytest.raises(ConfigError, match="noise"):
            SystemConfig(snr_db=10.0, sigma_w2_value=0.1)

    @pytest.mark.parametrize("kw,field", [
        (dict(M=50, M_osc=7), "M_osc"),
        (dict(M=10, K=20), "K"),
        (dict(q0=1.5), "q0"),
        (dict(tau=200, T_c=100), "tau"),
        (dict(powers=np.array([1.0, 2.0])), "powers"),
        (dict(alpha_mode="weird"), "alpha_mode"),
        (dict(alpha_mode="fixed"), "alpha"),
        (dict(ue_index=99), "ue_index"),
        (dict(n_realizations=0), "n_realizations"),
        (dict(parallelism=0), "parallelism"),
        (dict(powers=np.zeros(10)), "powers"),
        (dict(powers=np.array([0.1] * 9 + [np.inf])), "powers"),
        (dict(q0=float("nan")), "q0"),
        (dict(sigma_deg_bs=float("inf")), "sigma_deg_bs"),
        (dict(sigma_deg_ue=float("-inf")), "sigma_deg_ue"),
        (dict(snr_db=float("nan")), "snr_db"),
        (dict(snr_db=None, sigma_w2_value=float("inf")), "sigma_w2"),
        (dict(alpha_mode="fixed", alpha=float("inf")), "alpha"),
        (dict(q0=0.0), "q0"),
        (dict(master_seed=-1), "master_seed"),
        (dict(sigma_deg_bs=-1.0), "sigma_deg_bs"),
        (dict(tau=0), "tau"),
        (dict(snr_db=None, sigma_w2_value=0.0), "sigma_w2"),
        (dict(n_realizations=1), "n_realizations"),
    ])
    def test_field_level_messages(self, kw, field):
        with pytest.raises(ConfigError, match=field):
            SystemConfig(**kw)

    def test_zero_quality_needs_fixed_alpha(self):
        with pytest.raises(ConfigError, match="alpha_mode = fixed"):
            SystemConfig(q0=0.0)
        assert SystemConfig(q0=0.0, alpha_mode="fixed", alpha=0.1).q0 == 0.0

    def test_tau_may_equal_coherence_window(self):
        cfg = SystemConfig(tau=100, T_c=100)
        assert cfg.tau == 100

    def test_custom_powers(self):
        p = np.array([0.5, 0.3, 0.2])
        cfg = SystemConfig(M=6, K=3, M_osc=1, powers=p)
        assert np.array_equal(cfg.powers, p)

    def test_with_override(self):
        cfg = SystemConfig().with_(M_osc=5)
        assert cfg.M_osc == 5


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nM = 20\nK = 4\nM_osc = 2\nq0 = 0.8\n"
                        "snr_db = 5\npowers = equal\n\n"
                        "[sweep]\naxis = m_osc\nvalues = 1 2 4\n")
        cfg, axis, values = load_config(str(path))
        assert (cfg.M, cfg.K, cfg.M_osc, cfg.q0) == (20, 4, 2, 0.8)
        assert axis == "m_osc"
        assert values == [1.0, 2.0, 4.0]

    def test_sigma_w2_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nsigma_w2 = 0.3\n")
        cfg, _, _ = load_config(str(path))
        assert cfg.sigma_w2 == 0.3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path))

    def test_missing_system_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[sweep]\naxis = snr\nvalues = 0\n")
        with pytest.raises(ConfigError, match="system"):
            load_config(str(path))

    def test_bad_axis(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nM = 8\nK = 2\n\n[sweep]\naxis = nope\nvalues = 1\n")
        with pytest.raises(ConfigError, match="axis"):
            load_config(str(path))

    def test_readme_example_parses(self, tmp_path):
        # the ini block under "Config file format", inline ';' comments included
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = re.search(r"### Config file format.*?```ini\n(.*?)```", readme, re.S)[1]
        path = tmp_path / "run.ini"
        path.write_text(block)
        cfg, axis, values = load_config(str(path))
        assert (cfg.M, cfg.K, cfg.M_osc, cfg.q0, cfg.tau) == (50, 10, 5, 0.9, 10)
        assert (cfg.sigma_deg_bs, cfg.snr_db, cfg.n_realizations) == (6.0, 10.0, 2000)
        assert axis == "snr"
        assert values == [-10.0, 0.0, 10.0, 20.0, 30.0]

    def test_percent_sign_is_plain_text(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nM = 50%\n")
        with pytest.raises(ConfigError, match="M: expected int"):
            load_config(str(path))
