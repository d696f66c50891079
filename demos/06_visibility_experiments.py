"""The six visibility experiment suites, end to end.

Each suite certifies one falsifiable reading of a visibility statement:
small or highly curved scatterers radiate unless their intensity is
correspondingly small, manufactured radiationless sources obey the
apex-intensity envelope, and far-field patterns discriminate disjoint
supports, component counts, and curvature caps.  Tables and summaries
land in demo_output/.
"""

import time

import invisiscat.experiments as ex

out_dir = "demo_output"
print(f"{'suite':<24} {'rows':>5} {'counterexamples':>16} {'status':>8} {'time':>8}")
for name, fn in ex.SUITES.items():
    t0 = time.perf_counter()
    res = fn()
    seconds = time.perf_counter() - t0
    ex.write_outputs(res, out_dir)
    status = "pass" if res.passed else "FAIL"
    print(
        f"{name:<24} {len(res.rows):5d} {res.counterexamples:16d} "
        f"{status:>8} {seconds:7.1f}s"
    )
    for note in res.notes:
        print(f"    note: {note}")

print(f"\ncalibration constants in force:")
import json

print(json.dumps(ex.load_calibration(), indent=1, sort_keys=True))
print(f"\nCSV tables and JSON summaries written to {out_dir}/")
