"""A resumable verification campaign over an exhaustive census.

The enumeration splits into independent subtree jobs; each job checks
every family it visits and returns an exact aggregate.  Finished jobs
land in a checkpoint file as they complete, so an interrupted campaign
resumes where it stopped, and the merged report is byte-identical for
any worker count.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from ucf import EnumerationConstraints, run_campaign

c = EnumerationConstraints(n=5, t=3)

with tempfile.TemporaryDirectory() as tmp:
    checkpoint = Path(tmp) / "n5t3.ck"

    # first session: the whole campaign
    run_campaign(c, checkpoint=str(checkpoint))

    # a header line, then one "# agg" record per finished subtree
    lines = checkpoint.read_text().splitlines(keepends=True)
    print(f"checkpoint holds {sum(1 for ln in lines if ln.startswith('# agg '))} "
          "finished subtrees; first lines:")
    for line in lines[:3]:
        print(" ", line[:76])

    # cut it back to the header and 40 records: what a run killed after
    # 40 subtrees leaves
    checkpoint.write_text("".join(lines[:41]))
    print("\ninterrupted: kept the header and 40 finished subtrees")

    # second session: same checkpoint, remaining subtrees only
    report = run_campaign(c, checkpoint=str(checkpoint))
print(f"\nfamilies checked: {report.families_total}")
print("by T(F):", dict(sorted(report.families_by_T.items())))
print("counterexamples:", len(report.counterexamples))

# the report body carries no run metadata, so reruns compare bytewise
fresh = run_campaign(c, workers=2)
assert fresh.body_bytes() == report.body_bytes()
print("resumed run == fresh 2-worker run, byte for byte")
