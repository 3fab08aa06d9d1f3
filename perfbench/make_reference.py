"""Write the stored reference outputs (benchmark seed 0) from the current code.

Run from the repository root, only when a change is meant to alter the
program's output:

    python3 perfbench/make_reference.py

Campaign workloads keep ``per_trial.csv`` and ``aggregate.csv``; the
surrogate workload keeps the model (solver) rows of each eval CSV without
their wall-clock column.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys

import workloads


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from beamalloc import experiment as ex

    for w in workloads.WORKLOADS.values():
        work = os.path.join(root, ".bench_out", "make-reference", w.name)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        cfg_path = os.path.join(work, "workload.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(w.config_text(work))
        cfg = ex.parse_config(cfg_path)
        dest = os.path.join(workloads.REFERENCE_DIR, w.name)
        os.makedirs(dest, exist_ok=True)
        if w.kind == "campaign":
            workloads.campaign_block(ex, cfg, 1, w.ref_block, work)
            for name in ("per_trial.csv", "aggregate.csv"):
                shutil.copyfile(os.path.join(work, name), os.path.join(dest, name))
            print(f"wrote {dest}")
            continue
        workloads.set_surrogate_size(cfg, w.ref_block, w.ref_test, w.ref_epochs)
        for path in workloads.surrogate_pass(ex, cfg, 1, work)["evals"]:
            header, rows = workloads.read_csv(path)
            keep = [i for i, h in enumerate(header) if h != "time_ms"]
            with open(os.path.join(dest, os.path.basename(path)), "w", newline="",
                      encoding="utf-8") as fh:
                out = csv.writer(fh, lineterminator="\n")
                out.writerow([header[i] for i in keep])
                out.writerows([row[i] for i in keep] for row in rows if row[0].startswith("model_"))
        print(f"wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
