"""Figure 7f — execution time by number of quasi-identifiers.

Paper setting: R50A4W .. R50A9W (fixed 50k rows, 4-9 QIs, real-world
distribution), same thresholds as Figure 7e.  Expected shape:
individual risk and k-anonymity are only marginally affected by the
number of QIs (they group on exactly the full combination), while SUDA
grows but without combinatorial blow-up — the ascending-size MSU
search stops at the threshold, preempting redundant combinations (the
declarative analogue of the greedy Rule 7 activation).
"""

import time

import pytest

from repro.risk import IndividualRisk, KAnonymityRisk, SudaRisk

from paperfig import dataset, emit, engine_kanon_seconds, render_table

SIZES = ("R50A4W", "R50A5W", "R50A6W", "R50A8W", "R50A9W")
MEASURES = ("individual", "k-anonymity", "suda")


def make_measure(name: str):
    if name == "k-anonymity":
        return KAnonymityRisk(k=2)
    if name == "individual":
        return IndividualRisk(mode="sampled", samples=200)
    if name == "suda":
        return SudaRisk(k=3)
    raise ValueError(name)


def risk_time(code: str, measure_name: str) -> float:
    db = dataset(code)
    measure = make_measure(measure_name)
    start = time.perf_counter()
    measure.assess(db)
    return time.perf_counter() - start


def figure7f_rows():
    rows = []
    for code in SIZES:
        db = dataset(code)
        row = [code, len(db.quasi_identifiers)]
        for measure_name in MEASURES:
            row.append(round(risk_time(code, measure_name), 4))
        rows.append(row)
    return rows


def engine_rows(sizes=SIZES):
    """k-anonymity through the chase engine across the QI grid."""
    return [
        [code, len(dataset(code).quasi_identifiers),
         round(engine_kanon_seconds(code), 4)]
        for code in sizes
    ]


def test_fig7f_engine_path(benchmark):
    rows = benchmark.pedantic(
        engine_rows, args=(("R50A4W",),), rounds=1, iterations=1
    )
    emit(render_table(
        "Figure 7f (engine path): k-anonymity via chase",
        ["dataset", "QIs", "engine/s"],
        rows,
    ))
    assert all(row[2] > 0 for row in rows)


@pytest.mark.parametrize("code", ("R50A4W", "R50A9W"))
@pytest.mark.parametrize("measure_name", MEASURES)
def test_fig7f_by_attrs(benchmark, code, measure_name):
    db = dataset(code)
    measure = make_measure(measure_name)
    benchmark.pedantic(measure.assess, args=(db,), rounds=2, iterations=1)


def test_fig7f_report(benchmark):
    rows = benchmark.pedantic(figure7f_rows, rounds=1, iterations=1)
    emit(render_table(
        "Figure 7f: risk-estimation seconds by number of QIs",
        ["dataset", "QIs"] + [m for m in MEASURES],
        rows,
    ))
    # Shape: no combinatorial blow-up — going from 4 to 9 QIs must not
    # increase SUDA's time by more than the polynomial subset growth
    # (C(9,<=3)=129 vs C(4,<=3)=14, i.e. < ~12x with generous slack).
    suda_col = 2 + MEASURES.index("suda")
    assert rows[-1][suda_col] < max(rows[0][suda_col], 1e-4) * 40
    # k-anonymity stays in the same order of magnitude.
    k_col = 2 + MEASURES.index("k-anonymity")
    assert rows[-1][k_col] < max(rows[0][k_col], 1e-4) * 12


if __name__ == "__main__":
    emit(render_table(
        "Figure 7f: risk-estimation seconds by number of QIs",
        ["dataset", "QIs"] + [m for m in MEASURES],
        figure7f_rows(),
    ))
