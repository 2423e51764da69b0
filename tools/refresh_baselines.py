#!/usr/bin/env python3
"""Regenerate the committed smoke bench baselines (bench/baselines/).

Growing a bench adds sections the committed baselines do not carry yet (the
gate skips sections absent from the baseline), so after landing a new section
the baselines must be refreshed for CI to start gating it.  A blind overwrite
would also silently absorb *regressions* in the pre-existing sections, so this
tool verifies before it writes:

1. run the smoke benches from --build-dir into a scratch directory;
2. check every committed baseline against its fresh run with bench_check at
   --det-tol (default 0: pre-existing deterministic fields must be
   bit-identical; the timing band and the observer-overhead bound are
   disabled — wall clocks differ per host).
   A section or row missing from the fresh run is a finding too, unless it is
   named by --drop.  Any finding aborts the refresh with the full list,
   whatever --det-tol is: a nonzero --det-tol only widens what counts as
   unchanged, it never turns the check off;
3. run bench_check --self-test against each fresh file (the gate must pass it
   against itself and catch injected regressions, new sections included);
4. only then overwrite the committed baselines.

--drop SECTION or --drop SECTION/ROW (repeatable) is the allowlist of intended
removals: a whole section, or one row of it by its label / name / fleet_label /
campaign key.  Each must name something the committed baseline has and the
fresh run no longer has; everything else is still verified.

Usage:
  python3 tools/refresh_baselines.py [--build-dir build]
      [--baselines bench/baselines] [--det-tol 0.0] [--drop section[/row]]...
  python3 tools/refresh_baselines.py --self-test --baseline <file>
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_check import run_check, self_test  # noqa: E402

BENCHES = [
    ("bench_kernels", "BENCH_kernels_smoke.json"),
    ("bench_serve", "BENCH_serve_smoke.json"),
]

ROW_KEYS = ("label", "name", "fleet_label", "campaign")


def row_key(entry):
    """The identity bench_check matches a section's rows by."""
    if isinstance(entry, dict):
        for key in ROW_KEYS:
            if key in entry:
                return str(entry[key])
    return None


def names(data, spec):
    """Whether `data` holds the section or section/row `spec` names."""
    section, _, row = spec.partition("/")
    if section not in data:
        return False
    return not row or any(row_key(e) == row for e in data[section])


def without(data, specs):
    """`data` with the sections and rows named by `specs` removed."""
    pruned = copy.deepcopy(data)
    for spec in specs:
        section, _, row = spec.partition("/")
        if section not in pruned:
            continue
        if row:
            pruned[section] = [e for e in pruned[section] if row_key(e) != row]
        else:
            del pruned[section]
    return pruned


def verify(committed, fresh, det_tol, drops):
    """Findings that block replacing `committed` by `fresh`: every drift
    beyond det_tol and every removal not allowlisted by `drops` (the drops
    that apply to this file), plus every drop that is not a removal."""
    findings = [f"--drop {spec}: still present in the fresh run"
                for spec in drops if names(fresh, spec)]
    findings += run_check(without(committed, drops), fresh, time_tol=1e18,
                          det_tol=det_tol, overhead_tol=float("inf"))
    return findings


def refresh_self_test(baseline):
    """The verification must pass a file against itself, catch a removed row
    and a drift at any --det-tol, accept exactly the allowlisted drop, and
    leave host timing (observer overhead included) unchecked."""
    sections = [k for k, v in baseline.items()
                if isinstance(v, list) and v and row_key(v[0]) is not None]
    if not sections:
        print("refresh_baselines self-test FAILED: baseline has no keyed rows")
        return 1
    section = sections[0]
    spec = f"{section}/{row_key(baseline[section][0])}"
    shrunk = without(baseline, [spec])
    checks = [
        ("itself", verify(baseline, baseline, 0.0, []), False),
        (f"a removed {spec}", verify(baseline, shrunk, 0.0, []), True),
        (f"a removed {spec} at --det-tol 1e-3", verify(baseline, shrunk, 1e-3, []), True),
        (f"an allowlisted removal of {spec}", verify(baseline, shrunk, 0.0, [spec]), False),
        (f"--drop {spec} of a present row", verify(baseline, baseline, 0.0, [spec]), True),
    ]
    if baseline.get("bench") == "serve":
        # Kernel medians are timing only, so only serve has fields to drift.
        drifted = copy.deepcopy(baseline)
        drifted["campaigns"][0]["points"][0]["p99_latency_s"] *= 1.5
        checks.append(("a 50% p99 drift at --det-tol 0.1",
                       verify(baseline, drifted, 0.1, []), True))
    if baseline.get("observer_overhead"):
        # A noisy host's overhead reading is timing, not drift.
        noisy = copy.deepcopy(baseline)
        noisy["observer_overhead"][0]["overhead_fraction"] = 0.9
        checks.append(("an observer overhead of 0.9", verify(baseline, noisy, 0.0, []),
                       False))
    for what, findings, expect_findings in checks:
        if bool(findings) != expect_findings:
            print(f"refresh_baselines self-test FAILED on {what}: "
                  f"{'no finding' if expect_findings else findings}")
            return 1
    print(f"refresh_baselines self-test OK ({len(checks)} checks)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory holding the bench binaries")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed smoke baselines")
    parser.add_argument("--det-tol", type=float, default=0.0,
                        help="relative tolerance for pre-existing deterministic "
                             "fields (default 0.0: bit-identical); any finding "
                             "beyond it aborts")
    parser.add_argument("--drop", action="append", default=[],
                        metavar="SECTION[/ROW]",
                        help="allow this section or row to disappear (repeatable)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the verification logic against --baseline")
    parser.add_argument("--baseline", action="append", default=[],
                        help="baseline JSON for --self-test (repeatable)")
    args = parser.parse_args()

    if args.self_test:
        if not args.baseline:
            parser.error("--self-test needs --baseline")
        rc = 0
        for path in args.baseline:
            with open(path) as f:
                rc = max(rc, refresh_self_test(json.load(f)))
        return rc

    committed = {}
    for _, name in BENCHES:
        path = os.path.join(args.baselines, name)
        if os.path.exists(path):
            with open(path) as f:
                committed[name] = json.load(f)
    unknown = [spec for spec in args.drop
               if not any(names(data, spec) for data in committed.values())]
    if unknown:
        print(f"refresh_baselines: --drop names nothing in the committed "
              f"baselines: {', '.join(unknown)}")
        return 1

    findings = 0
    with tempfile.TemporaryDirectory(prefix="bench_refresh_") as scratch:
        fresh_paths = {}
        for binary, name in BENCHES:
            exe = os.path.join(args.build_dir, binary)
            if not os.path.exists(exe):
                print(f"refresh_baselines: {exe} not built; run "
                      f"`cmake --build {args.build_dir} -j` first")
                return 1
            out = os.path.join(scratch, name)
            print(f"refresh_baselines: running {binary} --smoke ...")
            subprocess.run([exe, "--smoke", "--out", out], check=True,
                           stdout=subprocess.DEVNULL)
            fresh_paths[name] = out

        for _, name in BENCHES:
            with open(fresh_paths[name]) as f:
                fresh = json.load(f)
            if name not in committed:
                print(f"refresh_baselines: {name} is new (no pre-existing "
                      f"sections to verify)")
                continue
            # The committed file drives the section walk, so sections it does
            # not carry yet (the ones this refresh introduces) are not compared.
            drops = [spec for spec in args.drop if names(committed[name], spec)]
            errors = verify(committed[name], fresh, args.det_tol, drops)
            if errors:
                findings += len(errors)
                print(f"refresh_baselines: {name}: {len(errors)} finding(s) at "
                      f"det-tol {args.det_tol}:")
                for e in errors:
                    print(f"  {e}")
            else:
                dropped = f" (dropped: {', '.join(drops)})" if drops else ""
                print(f"refresh_baselines: {name}: pre-existing sections verified "
                      f"at det-tol {args.det_tol}{dropped}")

        if findings:
            print(f"refresh_baselines: aborting without overwriting ({findings} "
                  f"finding(s); name intended removals with --drop)")
            return 1

        for _, name in BENCHES:
            with open(fresh_paths[name]) as f:
                fresh = json.load(f)
            # The gate must pass the fresh file against itself and catch
            # injected regressions — new sections included — before it
            # becomes the thing CI trusts.
            if self_test(fresh, time_tol=4.0, det_tol=1e-3):
                print(f"refresh_baselines: {name}: fresh file failed the "
                      f"bench_check self-test; not overwriting")
                return 1

        os.makedirs(args.baselines, exist_ok=True)
        for _, name in BENCHES:
            committed_path = os.path.join(args.baselines, name)
            os.replace(fresh_paths[name], committed_path)
            print(f"refresh_baselines: wrote {committed_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
