#!/usr/bin/env python3
"""Compare a fresh `bench --json` output against a committed BENCH_*.json.

The committed files are full-run snapshots on some past machine; a fresh
run (often --quick, on different hardware) can never match them value for
value. What MUST hold regardless of machine or run size:

  * the nga-bench-v1 schema and the bench name;
  * key-family coverage — every metric family present in the committed
    snapshot still exists in the fresh run. Families are keys with
    run-size tokens normalized (soak.rate_0p0200.* and soak.rate_0p0050.*
    are one family, soak.rate_*.*), so a --quick run that sweeps fewer
    rates still covers the family. A vanished family means an
    instrumentation regression: a renamed counter, a dropped gauge, a
    stage that stopped reporting;
  * claim floors — committed success_rate-style gauges that held a >=99%
    floor must still hold it fresh (the robustness claim, which IS
    machine-independent), committed goodput_retention gauges that held
    the >=80% overload-graceful floor must still hold it, committed
    shadow-measured agreement gauges (configured_agreement >=90%,
    browned_agreement >=40%) that held their floors must still hold
    them, and committed invariant-ish gauges stay present.

Values of counters, wall times, and latency gauges are reported for the
human but never gated: they are run-size and machine dependent.

Exit codes: 0 comparable, 1 regression (missing families / broken
floors), 2 usage or unreadable input. `--self-test` exercises both
failure modes against synthetic documents and exits 0 iff the checker
itself still catches them.
"""

import argparse
import json
import re
import sys

# Run-size dependent key tokens, normalized into one family each.
_NORMALIZERS = [
    (re.compile(r"rate_[0-9]+p[0-9]+"), "rate_*"),
    (re.compile(r"\blayer\.[0-9]+\."), "layer.*."),
    # Per-multiplier prof scopes (mul_EXACT, mul_DRUM4, ...): one family
    # per layer across the whole multiplier sweep.
    (re.compile(r"\bmul_[A-Za-z0-9_]+"), "mul_*"),
    # serve_scale sweep points are keyed by absolute offered RPS, which
    # is machine-dependent by design (the bench self-calibrates).
    (re.compile(r"\boffered_[0-9]+"), "offered_*"),
    # Per-tier gauges (brownout mix, shadow-measured quality): which
    # ladder tiers a run visits depends on where escalation lands on
    # that machine, so tiers fold into one family per metric.
    (re.compile(r"\btier_[0-9]+"), "tier_*"),
    # Per-tenant shard counters (shard.tenant.<name>.submitted, ...):
    # tenant names are bench-script choices (the chaos bench picks its
    # bystander off the ring), so they fold into one family per metric.
    (re.compile(r"\btenant\.[A-Za-z0-9-]+\."), "tenant.*."),
    # Per-shard scopes, should any surface as flat metric names.
    (re.compile(r"\bshard_[0-9]+\b"), "shard_*"),
]

# Gauge families whose committed floor is a machine-independent claim:
# suffix -> floor. A committed instance below the floor made no claim
# there, so only families that HELD the floor are re-asserted fresh.
_FLOORS = {
    "success_rate": 0.99,          # served/submitted under chaos (soak)
    "goodput_retention": 0.80,     # goodput at 1.5x knee vs at the knee
    # Shadow-measured delivered accuracy (argmax agreement vs the golden
    # exact table). The configured operator must stay near-exact; the
    # brownout rungs trade accuracy for throughput by design, so their
    # floor only asserts "well above chance", matching serve_scale.
    "configured_agreement": 0.90,
    "browned_agreement": 0.40,
}

# Sparse families: per-layer health counters are only mirrored when an
# event actually fired, so individual signals (nar on layer 3, ...) come
# and go with the run's fault dice. Checked as a group, not per key.
_SPARSE = re.compile(r"serve\.layer\.")

# Per-kernel prof record keys every kernel record carries.
_PROF_KERNEL_KEYS = ("calls", "macs", "lut_probes", "bytes", "wall_ns",
                     "macs_per_s", "arith_intensity")

_SECTIONS = ("counters", "gauges", "metrics", "wall_ns")


def family(key: str) -> str:
    for rx, repl in _NORMALIZERS:
        key = rx.sub(repl, key)
    return key


def families(d: dict) -> dict:
    """Map family -> list of (key, value) instances."""
    out = {}
    for k, v in d.items():
        out.setdefault(family(k), []).append((k, v))
    return out


def load(path: str, role: str) -> dict:
    try:
        with open(path) as f:
            d = json.load(f)
    except FileNotFoundError:
        print(f"bench_diff: {role} snapshot missing: {path}", file=sys.stderr)
        if role == "committed":
            print("bench_diff: regenerate it with the bench's --json flag "
                  "and commit the result alongside this change",
                  file=sys.stderr)
        sys.exit(2)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {role} snapshot {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if d.get("schema") != "nga-bench-v1":
        print(f"bench_diff: {path}: unexpected schema {d.get('schema')!r}",
              file=sys.stderr)
        sys.exit(2)
    return d


def compare(base: dict, fresh: dict, exempt=(), log=print):
    """Coverage + floor checks. Returns (failures, new_families)."""
    failures = []
    new_families = []

    if base["bench"] != fresh["bench"]:
        failures.append(
            f"bench name: committed {base['bench']!r} vs fresh "
            f"{fresh['bench']!r}")

    for section in _SECTIONS:
        bfam = families(base.get(section, {}))
        ffam = families(fresh.get(section, {}))
        sparse_missing = []
        for fam in sorted(bfam):
            if fam in ffam:
                continue
            if any(rx.search(fam) for rx in exempt):
                log(f"  [exempt] {section}: {fam}")
                continue
            if _SPARSE.search(fam):
                sparse_missing.append(fam)
                continue
            failures.append(f"{section}: family vanished: {fam}")
        # Sparse group check: SOME per-layer attribution must survive.
        if sparse_missing and not any(_SPARSE.search(f) for f in ffam):
            failures.append(
                f"{section}: every sparse family vanished "
                f"({len(sparse_missing)} committed, e.g. {sparse_missing[0]})")
        elif sparse_missing:
            for fam in sparse_missing:
                log(f"  [sparse]  {section}: {fam} (absent this run)")
        new_families += [f"{section}: {f}" for f in sorted(set(ffam) - set(bfam))]

    # The additive trace key (recorded/dropped spans) must not regress
    # away once committed.
    if "trace" in base and "trace" not in fresh:
        failures.append("trace: committed snapshot has the trace key, "
                        "fresh run does not")

    # The additive "prof" section (per-kernel performance attribution):
    # presence and SHAPE are machine-independent — every committed
    # kernel family must still be attributed, with the wall-clock record
    # keys intact, and a non-empty committed kernel table must not come
    # back empty.
    if "prof" in base:
        if "prof" not in fresh:
            failures.append("prof: committed snapshot has the prof section, "
                            "fresh run does not")
        else:
            bk = base["prof"].get("kernels", {})
            fk = fresh["prof"].get("kernels", {})
            if bk and not fk:
                failures.append("prof: committed kernel table is non-empty, "
                                "fresh run attributed nothing")
            bfam, ffam = families(bk), families(fk)
            for fam in sorted(bfam):
                if fam in ffam:
                    continue
                if any(rx.search(fam) for rx in exempt):
                    log(f"  [exempt] prof: {fam}")
                    continue
                failures.append(f"prof: kernel family vanished: {fam}")
            for key, rec in sorted(fk.items()):
                missing = [k for k in _PROF_KERNEL_KEYS if k not in rec]
                if missing:
                    failures.append(
                        f"prof: kernel {key} lacks {missing} "
                        f"(wall-clock attribution keys are not optional)")

    # The additive "integrity" section (scrub telemetry): the scalar
    # totals are machine-independent shape and must survive; per-table
    # entries are keyed by lane name and run-dependent, so only the
    # presence of the tables map is checked, never its keys.
    if "integrity" in base:
        if "integrity" not in fresh:
            failures.append("integrity: committed snapshot has the "
                            "integrity section, fresh run does not")
        else:
            bi, fi = base["integrity"], fresh["integrity"]
            for k in sorted(bi):
                if k in ("tables", "running"):
                    continue
                if k not in fi:
                    failures.append(f"integrity: key vanished: {k}")
            if bi.get("tables") and "tables" not in fi:
                failures.append("integrity: committed snapshot attributes "
                                "per-table state, fresh run lost the "
                                "tables map")

    # The additive "overload" section (brownout-ladder telemetry): the
    # scalar keys are machine-independent shape and must survive;
    # per-tier entries are keyed by ladder depth and config-dependent,
    # so only the presence of the tiers map is checked, never its keys.
    if "overload" in base:
        if "overload" not in fresh:
            failures.append("overload: committed snapshot has the overload "
                            "section, fresh run does not")
        else:
            bo, fo = base["overload"], fresh["overload"]
            for k in sorted(bo):
                if k == "tiers":
                    continue
                if k not in fo:
                    failures.append(f"overload: key vanished: {k}")
            if bo.get("tiers") and "tiers" not in fo:
                failures.append("overload: committed snapshot attributes "
                                "per-tier traffic, fresh run lost the "
                                "tiers map")

    # The additive "quality" section (shadow-execution telemetry): the
    # scalar totals are machine-independent shape and must survive; the
    # per-tier bins are keyed by ladder depth and config-dependent and
    # the SLO verdict is run-dependent, so only the presence of those
    # two maps is checked, never their keys or values.
    if "quality" in base:
        if "quality" not in fresh:
            failures.append("quality: committed snapshot has the quality "
                            "section, fresh run does not")
        else:
            bq, fq = base["quality"], fresh["quality"]
            for k in sorted(bq):
                if k in ("tiers", "slo"):
                    continue
                if k not in fq:
                    failures.append(f"quality: key vanished: {k}")
            if bq.get("tiers") and "tiers" not in fq:
                failures.append("quality: committed snapshot attributes "
                                "per-tier accuracy, fresh run lost the "
                                "tiers map")
            if "slo" in bq and "slo" not in fq:
                failures.append("quality: committed snapshot carries the "
                                "SLO verdict, fresh run lost it")

    # The additive "shard" section (fault-domain telemetry): the scalar
    # totals are machine-independent shape and must survive; the
    # per-tenant and per-shard maps are keyed by bench-chosen tenant
    # names and topology-dependent shard indices, so only the presence
    # of each non-empty committed map is checked, never its keys.
    if "shard" in base:
        if "shard" not in fresh:
            failures.append("shard: committed snapshot has the shard "
                            "section, fresh run does not")
        else:
            bs, fs = base["shard"], fresh["shard"]
            for k in sorted(bs):
                if k in ("tenants", "per_shard"):
                    continue
                if k not in fs:
                    failures.append(f"shard: key vanished: {k}")
            if bs.get("tenants") and "tenants" not in fs:
                failures.append("shard: committed snapshot attributes "
                                "per-tenant admission, fresh run lost the "
                                "tenants map")
            if bs.get("per_shard") and "per_shard" not in fs:
                failures.append("shard: committed snapshot attributes "
                                "per-shard lifecycle, fresh run lost the "
                                "per_shard map")

    # Claim floors: a committed family that held its suffix's floor
    # must still clear it in the fresh run, for every instance swept.
    bg, fg = families(base.get("gauges", {})), families(fresh.get("gauges", {}))
    for fam, binst in sorted(bg.items()):
        floor = next((f for sfx, f in _FLOORS.items()
                      if fam.endswith(sfx)), None)
        if floor is None:
            continue
        if fam not in fg:
            continue  # already reported by the coverage check
        if min(v for _, v in binst) < floor:
            continue  # the committed run made no floor claim here
        for key, v in fg[fam]:
            if v < floor:
                failures.append(
                    f"floor broken: {key} = {v:.4f} < {floor} "
                    f"(committed family {fam} held it)")

    return failures, new_families


def check_required_sections(base, fresh, required):
    """--require-section verdicts, role-labelled.

    Returns (stale, failures): `stale` lists required additive sections
    the COMMITTED snapshot predates — a usage-class error (exit 2) with
    a regenerate-and-commit instruction, not a bare KeyError; `failures`
    lists sections the FRESH run dropped, which is a plain regression
    (exit 1)."""
    stale, failures = [], []
    for name in required:
        if name not in base:
            stale.append(
                f"committed snapshot predates the required additive "
                f"section {name!r} — regenerate the committed BENCH_*.json "
                f"with the bench's --json flag and commit it alongside "
                f"this change")
        elif name not in fresh:
            failures.append(
                f"{name}: required section present in the committed "
                f"snapshot but missing from the fresh run")
    return stale, failures


def self_test() -> int:
    """Feed the checker synthetic documents covering every verdict it can
    reach, so CI notices if a refactor stops it catching regressions."""
    def doc(gauges=None, counters=None, prof=None):
        d = {"schema": "nga-bench-v1", "bench": "t",
             "gauges": gauges or {}, "counters": counters or {}}
        if prof is not None:
            d["prof"] = prof
        return d

    def kernel():
        return {"calls": 2, "macs": 100, "lut_probes": 90, "bytes": 400,
                "wall_ns": 1000, "macs_per_s": 1e8, "arith_intensity": 0.25}

    quiet = lambda *_: None
    base = doc(gauges={"a.success_rate": 0.995, "a.p99_ms": 12.0},
               counters={"soak.rate_0p0050.served": 100,
                         "soak.rate_0p0200.served": 400})
    prof_base = doc(prof={"kernels": {"mul_EXACT.layer.0.conv": kernel(),
                                      "mul_DRUM4.layer.0.conv": kernel()}})
    cases = [
        ("identical docs pass",
         base, base, (), 0),
        ("fewer swept rates still cover the family",
         base, doc(gauges=dict(base["gauges"]),
                   counters={"soak.rate_0p0100.served": 50}), (), 0),
        ("vanished family is a regression",
         base, doc(gauges=dict(base["gauges"])), (), 1),
        ("--allow-missing exempts the family",
         base, doc(gauges=dict(base["gauges"])),
         (re.compile(r"rate_\*"),), 0),
        ("broken floor is a regression",
         base, doc(gauges={"a.success_rate": 0.52, "a.p99_ms": 9.0},
                   counters=dict(base["counters"])), (), 1),
        ("no floor claim when the committed value is below it",
         doc(gauges={"b.success_rate": 0.60}),
         doc(gauges={"b.success_rate": 0.10}), (), 0),
        ("renamed bench is a regression",
         base, dict(base, bench="other"), (), 1),
        ("prof section absent on both sides passes",
         base, base, (), 0),
        ("vanished prof section is a regression",
         prof_base, doc(), (), 1),
        ("emptied prof kernel table is a regression",
         prof_base, doc(prof={"kernels": {}}), (), 1),
        ("one multiplier scope covers the whole mul_* sweep",
         prof_base,
         doc(prof={"kernels": {"mul_LOA5.layer.2.conv": kernel()}}), (), 0),
        ("kernel record missing wall-clock keys is a regression",
         prof_base,
         doc(prof={"kernels": {"mul_EXACT.layer.0.conv":
                               {"calls": 2, "macs": 100}}}), (), 1),
        ("vanished integrity section is a regression",
         dict(base, integrity={"pages_scanned": 9, "tables": {}}),
         base, (), 1),
        ("vanished integrity scalar key is a regression",
         dict(base, integrity={"pages_scanned": 9, "pages_repaired": 1}),
         dict(base, integrity={"pages_scanned": 2}), (), 1),
        ("per-table lane names are run-dependent, only the map matters",
         dict(base, integrity={"pages_scanned": 9,
                               "tables": {"serve.worker.0": {"pages": 32}}}),
         dict(base, integrity={"pages_scanned": 2,
                               "tables": {"serve.worker.2.g1":
                                          {"pages": 32}}}), (), 0),
        ("held goodput-retention floor must hold fresh",
         doc(gauges={"scale.brownout_on.goodput_retention": 0.93}),
         doc(gauges={"scale.brownout_on.goodput_retention": 0.55}), (), 1),
        ("a committed retention below the floor claims nothing",
         doc(gauges={"scale.brownout_off.goodput_retention": 0.07}),
         doc(gauges={"scale.brownout_off.goodput_retention": 0.02}), (), 0),
        ("retention above the floor on both sides passes",
         doc(gauges={"scale.brownout_on.goodput_retention": 0.93}),
         doc(gauges={"scale.brownout_on.goodput_retention": 0.85}), (), 0),
        ("machine-dependent offered rates fold into one family",
         doc(gauges={"scale.off.offered_1053.goodput_rps": 998.0}),
         doc(gauges={"scale.off.offered_611.goodput_rps": 580.0}), (), 0),
        ("vanished overload section is a regression",
         dict(base, overload={"ladder_engaged": True, "escalations": 3,
                              "tiers": {"0": {"requests": 9}}}),
         base, (), 1),
        ("vanished overload scalar key is a regression",
         dict(base, overload={"ladder_engaged": True, "escalations": 3}),
         dict(base, overload={"ladder_engaged": True}), (), 1),
        ("per-tier keys are config-dependent, only the map matters",
         dict(base, overload={"escalations": 3,
                              "tiers": {"0": {"requests": 9},
                                        "4": {"requests": 2}}}),
         dict(base, overload={"escalations": 1,
                              "tiers": {"0": {"requests": 5}}}), (), 0),
        ("vanished quality section is a regression",
         dict(base, quality={"sampled": 40, "compared": 38, "tiers": {}}),
         base, (), 1),
        ("vanished quality scalar key is a regression",
         dict(base, quality={"sampled": 40, "dropped": 2}),
         dict(base, quality={"sampled": 7}), (), 1),
        ("quality tier bins and SLO verdict are run-dependent maps",
         dict(base, quality={"sampled": 40, "slo": {"breached": False},
                             "tiers": {"0": {"agreement": 1.0},
                                       "3": {"agreement": 0.8}}}),
         dict(base, quality={"sampled": 3, "slo": {"breached": True},
                             "tiers": {"1": {"agreement": 0.9}}}), (), 0),
        ("losing the quality tiers map is a regression",
         dict(base, quality={"sampled": 40,
                             "tiers": {"0": {"agreement": 1.0}}}),
         dict(base, quality={"sampled": 3}), (), 1),
        ("held configured-agreement floor must hold fresh",
         doc(gauges={"scale.quality.configured_agreement": 0.999}),
         doc(gauges={"scale.quality.configured_agreement": 0.71}), (), 1),
        ("held browned-agreement floor must hold fresh",
         doc(gauges={"scale.quality.browned_agreement": 0.83}),
         doc(gauges={"scale.quality.browned_agreement": 0.22}), (), 1),
        ("a committed browned agreement below its floor claims nothing",
         doc(gauges={"scale.quality.browned_agreement": 0.31}),
         doc(gauges={"scale.quality.browned_agreement": 0.05}), (), 0),
        ("visited ladder tiers differ by machine, one family per metric",
         doc(gauges={"scale.quality.on.knee.tier_3.agreement": 0.91,
                     "scale.quality.on.knee.tier_2.agreement": 0.94}),
         doc(gauges={"scale.quality.on.knee.tier_1.agreement": 1.0}), (), 0),
        ("vanished shard section is a regression",
         dict(base, shard={"submitted": 90, "failovers": 2, "tenants": {}}),
         base, (), 1),
        ("vanished shard scalar key is a regression",
         dict(base, shard={"submitted": 90, "failovers": 2}),
         dict(base, shard={"submitted": 12}), (), 1),
        ("shard tenant names and shard indices are run-dependent maps",
         dict(base, shard={"failovers": 2,
                           "tenants": {"tenant-blue": {"submitted": 40}},
                           "per_shard": {"0": {"kills": 1}}}),
         dict(base, shard={"failovers": 1,
                           "tenants": {"tenant-9": {"submitted": 3}},
                           "per_shard": {"1": {"kills": 1}}}), (), 0),
        ("losing the shard tenants map is a regression",
         dict(base, shard={"failovers": 2,
                           "tenants": {"tenant-blue": {"submitted": 40}}}),
         dict(base, shard={"failovers": 1}), (), 1),
        ("tenant-named counter families fold into one family",
         doc(counters={"shard.tenant.tenant-blue.limited": 3,
                       "shard.tenant.tenant-4.limited": 0}),
         doc(counters={"shard.tenant.tenant-noisy.limited": 9}), (), 0),
        ("held bystander success floor must hold fresh",
         doc(gauges={"chaos.iso_on.nonvictim.success_rate": 1.0}),
         doc(gauges={"chaos.iso_on.nonvictim.success_rate": 0.84}), (), 1),
        ("a committed victim rate below the floor claims nothing",
         doc(gauges={"chaos.iso_on.victim.success_rate": 0.90}),
         doc(gauges={"chaos.iso_on.victim.success_rate": 0.31}), (), 0),
    ]
    bad = 0
    for name, b, f, exempt, want in cases:
        failures, _ = compare(b, f, exempt, log=quiet)
        got = 1 if failures else 0
        status = "ok" if got == want else "FAIL"
        bad += got != want
        print(f"  [{status}] {name}" +
              (f" (want {want}, got {got}: {failures})" if got != want else ""))

    # --require-section verdicts, which split by ROLE rather than value.
    with_integrity = dict(base, integrity={"pages_scanned": 9})
    req_cases = [
        ("required section present on both sides",
         with_integrity, with_integrity, ["integrity"], 0),
        ("stale committed snapshot is a labelled usage error, not exit 1",
         base, with_integrity, ["integrity"], 2),
        ("fresh run dropping a required section is a regression",
         with_integrity, base, ["integrity"], 1),
        ("required quality section missing from both sides is stale",
         base, base, ["quality"], 2),
    ]
    for name, b, f, req, want in req_cases:
        stale, failures = check_required_sections(b, f, req)
        got = 2 if stale else (1 if failures else 0)
        ok = got == want and (not stale or "predates" in stale[0])
        status = "ok" if ok else "FAIL"
        bad += not ok
        print(f"  [{status}] {name}" +
              ("" if ok else f" (want {want}, got {got})"))

    total = len(cases) + len(req_cases)
    print(f"bench_diff --self-test: {total - bad}/{total} ok")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("committed", nargs="?",
                    help="committed BENCH_*.json snapshot")
    ap.add_argument("fresh", nargs="?", help="fresh bench --json output")
    ap.add_argument("--allow-missing", action="append", default=[],
                    help="family regex exempt from the coverage check "
                         "(e.g. a section gated off in this build)")
    ap.add_argument("--require-section", action="append", default=[],
                    help="additive top-level section that must exist in "
                         "BOTH snapshots; a committed snapshot that "
                         "predates it is reported as such (exit 2), a "
                         "fresh run that dropped it is a regression")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checker against synthetic documents")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.committed or not args.fresh:
        ap.error("the committed and fresh snapshot paths are required")

    base = load(args.committed, "committed")
    fresh = load(args.fresh, "fresh")
    stale, required_failures = check_required_sections(
        base, fresh, args.require_section)
    if stale:
        for s in stale:
            print(f"bench_diff: {args.committed}: {s}", file=sys.stderr)
        return 2
    exempt = [re.compile(p) for p in args.allow_missing]
    failures, new_families = compare(base, fresh, exempt)
    failures = required_failures + failures

    print(f"bench_diff: {args.committed} vs {args.fresh}")
    print(f"  committed: {sum(len(base.get(s, {})) for s in ('counters', 'gauges', 'metrics'))} metrics"
          f", fresh: {sum(len(fresh.get(s, {})) for s in ('counters', 'gauges', 'metrics'))}")
    for nf in new_families:
        print(f"  [new]     {nf}")
    if failures:
        print(f"  {len(failures)} regression(s):")
        for f in failures:
            print(f"    FAIL {f}")
        return 1
    print("  coverage and claim floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
