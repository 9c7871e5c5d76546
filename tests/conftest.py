import numpy as np

# pass/fail lines from the acceptance suite, echoed after the run so they
# survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_instances(rng: np.random.Generator, count: int,
                     h_lo=0.0, h_hi=3.0, p_lo=0.05, p_hi=20.0):
    """Two-user instances: gains sorted ascending, positive power limits."""
    out = []
    for _ in range(count):
        h = np.sort(rng.uniform(h_lo, h_hi, 2))
        m = rng.uniform(p_lo, p_hi, 2)
        out.append(((float(h[0]), float(h[1])), (float(m[0]), float(m[1]))))
    return out


def jam_mode_value(h, pmax):
    """Jam-objective value of the closed-form solution, gains ascending.

    When the allocation policy defers to both-transmit (jamming is not the
    right mode), the jamming objective itself is still maximized by full
    transmit power and a silent jammer: for h2 <= 1 the stationarity roots
    are nonpositive, so the objective is nonincreasing in the jamming power.
    """
    from reference_rates import jam_rate

    from macwiretap.optimizer import optimal_powers_jam

    alloc = optimal_powers_jam(h, pmax)
    p = (pmax[0], 0.0) if alloc.case_label == "BOTH_TRANSMIT" else alloc.p
    return max(0.0, jam_rate(p, h)), alloc


def jam_derivative_numerator(p1, p2, h1, h2):
    """Sign-carrying numerator of d/dP2 of the jamming objective's ratio
    form; zero exactly at the stationarity roots.  Independent of the
    factored-parabola route used by the implementation."""
    r = (1.0 + h1 * p1 + h2 * p2) / (1.0 + p1 + p2)
    f = (1.0 + h2 * p2) / (1.0 + p2)
    return (h2 - r) / (1.0 + p1 + p2) * f - r * (h2 - f) / (1.0 + p2)
