"""Boundary-localization diagnostics: amplified maps and radial decay profiles.

Runs ``dtnlab localize`` at p = 0 per shape into --out (bkmap.csv,
profile.csv, report.json) and emits standalone plot scripts next to them.
"""
import argparse
import json
from pathlib import Path

from dtnlab.cli import RunConfig, run


CASES = {
    "square": ("rect:b1=2,b2=2", 15),
    "pentagon": ("ngon:N=5,R=1", 15),
    "disk": ("disk:R=1", 20),
    "deformed": ("deformed:gamma=0.02,m=5", 20),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, default=0.0075)
    ap.add_argument("--out", default="localization_out")
    ap.add_argument("--cases", nargs="*", default=list(CASES))
    args = ap.parse_args()

    for name in args.cases:
        domain, k = CASES[name]
        out = str(Path(args.out) / name)
        run(RunConfig(command="localize", domain=domain, h=args.h, p=0.0, k=k, out=out))
        report = json.loads((Path(out) / "report.json").read_text())
        run(RunConfig(command="emit-plots", out=out, artifacts=out))
        print(f"{name}: mu_{k} = {report['mu_k']:.4f}, max B = {report['max_B']:.3f} -> {out}")


if __name__ == "__main__":
    main()
