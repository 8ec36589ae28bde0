"""SHA-256 of every CSV that the demo and benchmark runs write, and of each
run's verdict and solver counters.

    python tools/csv_digests.py [--root CHECKOUT]

Runs, at seed 7 and in a temporary directory, each CLI command below
on its config, importing barenheat from ``CHECKOUT/src`` (default: the
checkout this script sits in), and prints one ``sha256  run/file`` line per
CSV it wrote, then one ``sha256  run/verdict`` line (see ``verdict_digest``),
in a fixed order:

* ``solve``, ``mc``, ``converge``, ``stability`` and ``contraction`` on
  ``demos/configs/additive.ini``;
* ``picard`` on ``demos/configs/multiplicative.ini``, on
  ``perfbench/configs/picard.ini``, which is only read, and on
  ``demos/configs/multiplicative2d.ini``, the one 2D Picard run;
* ``solve`` on ``perfbench/configs/solve2d.ini``, and ``converge`` on it
  at dt 1/8, 1/16 and 1/32 with two paths, the one run of coupled 2D dt
  levels;
* ``solve`` on ``demos/configs/cubic_noise.ini``, whose noise has powers
  of t alone and a power of x t;
* ``converge``, ``solve``, ``mc`` and ``contraction`` on
  ``demos/configs/ramp.ini``, the 1D runs of nonlinear alpha: ``converge``
  on several paths, whose Newton corrections solve against a Jacobian of
  their own on every row, and ``mc`` and ``contraction``, which read u and
  the contraction factors of those runs;
* ``solve`` on ``demos/configs/linear2d.ini``, and ``converge`` on its
  three dt levels with two paths: 2D linear alpha with c = 0.5, whose
  1 + c is not a power of two, stepping in one bound solve per inner
  iteration across dt spans; then ``mc``, ``stability`` and
  ``contraction`` on it, the 2D runs of the energy statistic, which reads
  u, of the two coupled runs of the stability check and of the worst
  contraction factor;
* ``converge`` on ``demos/configs/self_convergence.ini``, the one
  self-convergence study: final-time gaps between coupled levels.

CSV bodies, verdicts and counters are byte-reproducible for a fixed config
and seed, so two checkouts that print the same listing wrote the same bits
and reached the same verdicts; ``diff`` the listings of two commits to see
which CSVs, verdicts or counters a change moves.  The configs are
read from the checkout under test; a run whose config that checkout lacks
prints one ``absent  run`` line instead of its CSVs, so an older checkout
lists the runs it cannot make.  A command that exits with an error (exit
code 1) stops the script with exit code 1; exit code 2, a failed
statistical check, still leaves its CSV and is accepted.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7

# (command, config, extra flags)
RUNS = (
    ("solve", "demos/configs/additive.ini", ()),
    ("mc", "demos/configs/additive.ini", ()),
    ("converge", "demos/configs/additive.ini", ()),
    ("stability", "demos/configs/additive.ini", ()),
    ("contraction", "demos/configs/additive.ini", ()),
    ("picard", "demos/configs/multiplicative.ini", ()),
    ("picard", "perfbench/configs/picard.ini", ()),
    ("picard", "demos/configs/multiplicative2d.ini", ()),
    ("solve", "perfbench/configs/solve2d.ini", ()),
    ("converge", "perfbench/configs/solve2d.ini",
     ("--dt-list", "0.125,0.0625,0.03125", "--paths", "2")),
    ("solve", "demos/configs/cubic_noise.ini", ()),
    ("converge", "demos/configs/ramp.ini", ()),
    ("solve", "demos/configs/ramp.ini", ()),
    ("mc", "demos/configs/ramp.ini", ()),
    ("contraction", "demos/configs/ramp.ini", ()),
    ("solve", "demos/configs/linear2d.ini", ()),
    ("converge", "demos/configs/linear2d.ini", ("--paths", "2")),
    ("mc", "demos/configs/linear2d.ini", ()),
    ("stability", "demos/configs/linear2d.ini", ()),
    ("contraction", "demos/configs/linear2d.ini", ()),
    ("converge", "demos/configs/self_convergence.ini", ()),
)

# Runs the CLI of the barenheat under argv[1] and nowhere else.
CHILD = """import os, sys
src = sys.argv[1]
sys.path.insert(0, src)
from barenheat import cli
if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"barenheat was imported from {cli.__file__}, not {src}")
sys.exit(cli.main(sys.argv[2:]))
"""


def verdict_digest(outdir):
    """SHA-256 hex of the JSON, with sorted keys, of the verdict and counters
    of the run that wrote ``outdir``: ``summary.json``'s ``pass`` and
    ``statistic`` and ``manifest.json``'s ``solver``.  Wall times and every
    other key are left out, so the digest moves only with a result."""
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as handle:
        solver = json.load(handle)["solver"]
    verdict = {"pass": summary["pass"], "statistic": summary["statistic"], "solver": solver}
    return hashlib.sha256(json.dumps(verdict, sort_keys=True).encode("utf-8")).hexdigest()


def digests(root, workdir):
    """(label, sha256 hex) of every CSV of every run and then of its
    verdict, in run order, or (run label, "absent") for a run whose config
    ``root`` lacks."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env.pop("SOLVER_SEED", None)  # it would override SEED
    found = []
    for command, config, flags in RUNS:
        label = f"{command}-{os.path.splitext(os.path.basename(config))[0]}"
        if not os.path.exists(os.path.join(root, config)):
            found.append((label, "absent"))
            continue
        outdir = os.path.join(workdir, label)
        argv = [sys.executable, "-c", CHILD, src, command, "--config",
                os.path.join(root, config), "--out", outdir, "--seed", str(SEED), *flags]
        result = subprocess.run(argv, env=env, capture_output=True, text=True)
        if result.returncode not in (0, 2):
            raise SystemExit(f"{label} exited with {result.returncode}:\n{result.stderr}")
        names = sorted(name for name in os.listdir(outdir) if name.endswith(".csv"))
        if not names:
            raise SystemExit(f"{label} wrote no CSV")
        for name in names:
            with open(os.path.join(outdir, name), "rb") as handle:
                found.append((f"{label}/{name}", hashlib.sha256(handle.read()).hexdigest()))
        found.append((f"{label}/verdict", verdict_digest(outdir)))
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/ and configs run (default: this one)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    with tempfile.TemporaryDirectory(prefix="csv-digests-") as workdir:
        for label, digest in digests(root, workdir):
            print(f"{digest}  {label}")


if __name__ == "__main__":
    main()
