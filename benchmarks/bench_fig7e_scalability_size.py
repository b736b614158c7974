"""Figure 7e — execution time by dataset size and risk technique.

Paper setting: unbalanced datasets R6A4U, R12A4U, R25A4U, R50A4U,
R100A4U; three risk techniques (individual risk, k-anonymity, SUDA);
k = 2 for k-anonymity, MSU threshold 3 for SUDA, T = 0.5.  Both the
full anonymization-cycle time and the risk-estimation-only time are
measured.  Expected shape: risk estimation dominates total time;
k-anonymity is cheapest and roughly linear; individual risk with the
library-sampled negative binomial is costlier (library interaction
overhead); SUDA is the most expensive.
"""

import statistics
import time

import pytest

from repro.anonymize import AnonymizationCycle, LocalSuppression
from repro.risk import IndividualRisk, KAnonymityRisk, SudaRisk

from paperfig import dataset, emit, engine_kanon_seconds, render_table

SIZES = ("R6A4U", "R12A4U", "R25A4U", "R50A4U", "R100A4U")


def make_measure(name: str):
    if name == "k-anonymity":
        return KAnonymityRisk(k=2)
    if name == "individual":
        # The paper plugged an off-the-shelf statistical library and
        # sampled from the actual negative binomial: the costly trend.
        return IndividualRisk(mode="sampled", samples=200)
    if name == "suda":
        return SudaRisk(k=3)
    raise ValueError(name)


MEASURES = ("individual", "k-anonymity", "suda")

#: Risk-only time is the median of this many calls: at 4 QIs SUDA's
#: and k-anonymity's differ by about a fifth, within one call's noise.
RISK_REPEATS = 5


def risk_only(code: str, measure_name: str) -> float:
    db = dataset(code)
    measure = make_measure(measure_name)
    start = time.perf_counter()
    measure.assess(db)
    return time.perf_counter() - start


def full_cycle(code: str, measure_name: str) -> float:
    db = dataset(code)
    cycle = AnonymizationCycle(
        make_measure(measure_name),
        LocalSuppression(),
        threshold=0.5,
    )
    start = time.perf_counter()
    cycle.run(db)
    return time.perf_counter() - start


def warm_up():
    """Run each measure once, untimed, so that one-time costs such as
    the lazy ``scipy`` import of sampled individual risk are not billed
    to the first dataset of the sweep."""
    for measure_name in MEASURES:
        full_cycle(SIZES[0], measure_name)


def figure7e_timings():
    """Per size: the dataset, its rows, then each measure's full-cycle
    seconds and median risk-only seconds, unrounded.  The measures'
    risk-only calls are interleaved, one call of each per repeat, so a
    slow phase of the machine lands on every measure alike."""
    warm_up()
    rows = []
    for code in SIZES:
        totals = [full_cycle(code, name) for name in MEASURES]
        risk = {name: [] for name in MEASURES}
        for _ in range(RISK_REPEATS):
            for name in MEASURES:
                risk[name].append(risk_only(code, name))
        row = [code, len(dataset(code))]
        for total, name in zip(totals, MEASURES):
            row += [total, statistics.median(risk[name])]
        rows.append(row)
    return rows


def rounded(rows):
    """Timing rows as printed: seconds to 4 decimals."""
    return [row[:2] + [round(value, 4) for value in row[2:]] for row in rows]


def figure7e_rows():
    return rounded(figure7e_timings())


def engine_rows(sizes=SIZES):
    """k-anonymity through the chase engine across the size grid."""
    return [
        [code, len(dataset(code)), round(engine_kanon_seconds(code), 4)]
        for code in sizes
    ]


@pytest.mark.parametrize("measure_name", MEASURES)
@pytest.mark.parametrize("code", ("R6A4U", "R25A4U"))
def test_fig7e_risk_estimation(benchmark, code, measure_name):
    db = dataset(code)
    measure = make_measure(measure_name)
    benchmark.pedantic(
        measure.assess, args=(db,), rounds=2, iterations=1
    )


@pytest.mark.parametrize("measure_name", MEASURES)
def test_fig7e_full_cycle(benchmark, measure_name):
    benchmark.pedantic(
        full_cycle, args=("R25A4U", measure_name), rounds=1, iterations=1
    )


def test_fig7e_engine_path(benchmark):
    # Engine cost is tracked by perfbench's chase_modules workload
    # (recorded and gated by regress.py), not asserted here (CI noise).
    rows = benchmark.pedantic(
        engine_rows, args=(("R6A4U", "R25A4U"),), rounds=1, iterations=1
    )
    emit(render_table(
        "Figure 7e (engine path): k-anonymity via chase",
        ["dataset", "rows", "engine/s"],
        rows,
    ))
    assert all(row[2] > 0 for row in rows)


def test_fig7e_report(benchmark):
    rows = benchmark.pedantic(figure7e_timings, rounds=1, iterations=1)
    columns = ["dataset", "rows"]
    for measure_name in MEASURES:
        columns += [f"{measure_name}/total", f"{measure_name}/risk"]
    emit(render_table(
        "Figure 7e: elapsed seconds by dataset size and risk technique",
        columns,
        rounded(rows),
    ))
    # Shape: time grows with size for every technique (compare the
    # smallest and largest datasets).
    for column in range(2, len(columns)):
        assert rows[-1][column] >= rows[0][column] * 0.5
    # k-anonymity's risk estimation is cheaper than SUDA's on the
    # largest dataset.  Cycle totals are not compared: at 4 QIs they
    # are of the same order and their ranking is not stable.
    last = rows[-1]
    k_risk = last[3 + 2 * MEASURES.index("k-anonymity")]
    suda_risk = last[3 + 2 * MEASURES.index("suda")]
    assert k_risk < suda_risk


if __name__ == "__main__":
    columns = ["dataset", "rows"]
    for measure_name in MEASURES:
        columns += [f"{measure_name}/total", f"{measure_name}/risk"]
    emit(render_table(
        "Figure 7e: elapsed seconds by dataset size and risk technique",
        columns,
        figure7e_rows(),
    ))
