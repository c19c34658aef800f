from hypothesis import settings

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
