"""Regenerate every paper figure (and extension table) in one go.

Runs each bench module's row generator directly — no pytest needed —
prints the tables and writes machine-readable copies to
``benchmarks/results/figures.json``:

    python benchmarks/run_all.py
    REPRO_BENCH_SCALE=1 python benchmarks/run_all.py   # paper sizes

The per-figure seconds it prints are for reading, not gating: the
performance trajectory is ``perfbench``'s, recorded and gated by
``benchmarks/regress.py``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from paperfig import SCALE, emit, render_table  # noqa: E402

import bench_datasets  # noqa: E402
import bench_fig7a_nulls_by_k as fig7a  # noqa: E402
import bench_fig7b_information_loss as fig7b  # noqa: E402
import bench_fig7c_null_semantics as fig7c  # noqa: E402
import bench_fig7d_business_knowledge as fig7d  # noqa: E402
import bench_fig7e_scalability_size as fig7e  # noqa: E402
import bench_fig7f_scalability_attrs as fig7f  # noqa: E402
import bench_ablation_heuristics as ablation  # noqa: E402
import bench_attack_by_k as attack_by_k  # noqa: E402
import bench_extension_measures as measures  # noqa: E402
import bench_scenarios as scenarios  # noqa: E402


FIGURES = [
    ("figure6", "Figure 6: dataset grid",
     ["Dataset", "No. Att.", "No. Tuples", "Dist.", "Data", "rows(run)",
      "risky(k=2)"],
     bench_datasets.figure6_rows),
    ("figure7a", "Figure 7a: nulls injected by k-anonymity threshold",
     ["k"] + list(fig7a.DATASETS), fig7a.figure7a_rows),
    ("figure7b", "Figure 7b: information loss by k-anonymity threshold",
     ["k"] + list(fig7b.DATASETS), fig7b.figure7b_rows),
    ("figure7c", "Figure 7c: maybe-match vs standard null semantics",
     ["k"] + [f"{c}/{s}" for c in fig7c.DATASETS
              for s in ("maybe", "std")],
     fig7c.figure7c_rows),
    ("figure7d", "Figure 7d: nulls by #control relationships",
     ["rel(paper)", "rel(run)"] + list(fig7d.DATASETS),
     fig7d.figure7d_rows),
    ("figure7e", "Figure 7e: seconds by dataset size",
     ["dataset", "rows"] + [f"{m}/{p}" for m in fig7e.MEASURES
                            for p in ("total", "risk")],
     fig7e.figure7e_rows),
    ("figure7f", "Figure 7f: seconds by #QIs",
     ["dataset", "QIs"] + list(fig7f.MEASURES), fig7f.figure7f_rows),
    ("ablation", "Heuristic & method ablation",
     ["configuration", "nulls", "recoded", "info loss", "joint TV",
      "iterations"],
     ablation.ablation_rows),
    ("attack_by_k", "Attack hardening by k",
     ["anonymization", "success", "mean cohort", "confidence",
      "E[reid]", "nulls"],
     attack_by_k.sweep_rows),
    ("measures", "Risk-measure family",
     ["measure", "T", "risky", "nulls", "converged", "assess s"],
     measures.measure_rows),
    ("scenarios", "Schema independence across scenarios",
     ["scenario", "rows", "QIs", "risky(k=2)", "nulls", "recoded",
      "converged"],
     scenarios.scenario_rows),
]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    results = {"scale": SCALE, "figures": {}}
    for key, title, columns, generator in FIGURES:
        start = time.perf_counter()
        rows = generator()
        elapsed = time.perf_counter() - start
        emit(render_table(f"{title} (scale 1/{SCALE})", columns, rows))
        results["figures"][key] = {
            "title": title,
            "columns": columns,
            "rows": [[_plain(v) for v in row] for row in rows],
            "seconds": round(elapsed, 2),
        }
    output_dir = Path(__file__).parent / "results"
    output_dir.mkdir(exist_ok=True)
    output_path = output_dir / "figures.json"
    output_path.write_text(json.dumps(results, indent=2))
    print(f"\nwrote {output_path}")
    return 0


def _plain(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
