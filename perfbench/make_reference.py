"""Write reference.json: the checked output values of every pool member.

    python3 perfbench/make_reference.py [workload ...]

For each slot of each workload, every pool member is run once without a
symmetry and the values its check pins are stored.  The references were made
on the commit that introduced the benchmark; regenerate them only together
with a change to the pools or slots, never to make a changed program pass.
"""

import json
import shutil
import sys
import time

import run


def main(argv):
    run.import_program()
    import numpy
    import workloads

    path = run.HERE / "reference.json"
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"workloads": {}}
    names = argv or list(workloads.WORKLOADS)
    work = run.ROOT / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[name](str(work))
            wl.setup()
            table = {}
            for slot in wl.slots:
                rows = []
                for k in range(slot.members):
                    syms = [workloads.IDENTITY] if slot.G else []
                    op = wl.build(workloads.Op(slot, [k], syms))
                    rows.append(wl.reference_values(op, wl.execute(op)))
                table[slot.name] = rows
            data["workloads"][name] = table
            print(f"{name}: {len(table)} slots in "
                  f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    data["made_with"] = {"python": sys.version.split()[0],
                         "numpy": numpy.__version__}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
