"""Boundary-localization diagnostics: amplified maps and radial decay profiles.

Runs ``dtnlab localize`` at p = 0 per shape into --out (bkmap.csv,
profile.csv, report.json) and emits standalone plot scripts next to them.
Exits with the CLI's exit code when a command fails.
"""
import argparse
import json
import sys
from pathlib import Path

from dtnlab import cli


CASES = {
    "square": ("rect:b1=2,b2=2", 15),
    "pentagon": ("ngon:N=5,R=1", 15),
    "disk": ("disk:R=1", 20),
    "deformed": ("deformed:gamma=0.02,m=5", 20),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, default=0.0075)
    ap.add_argument("--out", default="localization_out")
    ap.add_argument("--cases", nargs="*", default=list(CASES))
    args = ap.parse_args()

    for name in args.cases:
        domain, k = CASES[name]
        out = str(Path(args.out) / name)
        rc = cli.main(["localize", "--domain", domain, "--h", repr(args.h), "--p", "0",
                       "--k", str(k), "--out", out])
        rc = rc or cli.main(["emit-plots", "--artifacts", out, "--out", out])
        if rc:
            return rc
        report = json.loads((Path(out) / "report.json").read_text())
        print(f"{name}: mu_{k} = {report['mu_k']:.4f}, max B = {report['max_B']:.3f} -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
