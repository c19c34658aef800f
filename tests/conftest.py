from hypothesis import settings

from pnmimo.analytics import effective_quality

# Every run replays the same examples and keeps no example database, so the
# property tests are reproducible; each test keeps its own max_examples.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def sinr_mf_finite_k(config) -> float:
    """MF effective SINR with the observed UE's own power left out of the
    interference sum, which removes the limit form's O(1/K) bias at small K:
    M*q_eff*p_k / (sum_{k1 != k} p_k1 + sigma_w^2 * sum p)."""
    p_k = float(config.powers[config.ue_index])
    psum = float(config.powers.sum())
    den = (psum - p_k) + config.sigma_w2 * psum
    return config.M * effective_quality(config) * p_k / den
