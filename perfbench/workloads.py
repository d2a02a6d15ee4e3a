"""Seeded job lists for the four benchmark workloads, with output checks.

A job is one `multisep` command line plus a check of its stdout.  Every
input is drawn from a `random.Random` seeded with the workload name and
seed, so one seed always gives the same argv lists; the program only
ever sees the generated argv.  The
seed moves grid offsets, bisection brackets, probe levels, family
parameters and the CLI `--seed`, never the sizes, so the work per pass
stays the same from seed to seed.

Checks hold for any seed.  They compare against closed forms derived
for the isotropic noise families (see README.md), the paper's
thresholds, and the ring(6) gap chain.  Three references have no closed
form here and were computed at the commit that added this benchmark:
E0 of ring(9), E_4sep of ring(6) and the p = 0 value of the qm
criterion at n=8, d=3, m=2, f=3.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

NAMES = ("sweeps", "large-n", "gaps", "dense")


class CheckError(Exception):
    """A job's stdout does not match what the inputs imply."""


@dataclass
class Job:
    label: str
    argv: list[str]
    check: Callable[[str], None]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def stirling2(n, k):
    """Number of k-partitions of n labels (recurrence, independent of the program)."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def ghz_ksep_value(n, d, k, alpha):
    """k-separability value of ghz-iso with a probe (a^n, b^n), a != b.

    The off-diagonal element is alpha/d; every mixed diagonal is pure
    noise (1-alpha)/d^n, so each k-partition term is (1-alpha)/d^n.
    k = 2 is the gme criterion.
    """
    return alpha / d - stirling2(n, k) * (1 - alpha) / d ** n


def ghz_ksep_threshold(n, d, k):
    s = stirling2(n, k)
    return s / (s + d ** (n - 1))


def q0_value(n, d, alpha):
    """Q0 of ghz-iso: d(d-1) level pairs, each a gme sum."""
    return d * (d - 1) * ghz_ksep_value(n, d, 2, alpha)


def q0_threshold(n, d, f):
    b = 2 ** (n - 1) - 1
    dn1 = d ** (n - 1)
    return ((f - 2) * dn1 / (d - 1) + b) / (dn1 + b)


def _dicke_x(n, d, m):
    mu = min(m, n - m)
    return math.comb(n, mu) * (2 * n - 2 * mu - 1) / d ** n


def qm_f2_value(n, d, m, p):
    """qm criterion at f = 2 on dicke-iso: p/(d-1) - X (1-p)."""
    return p / (d - 1) - _dicke_x(n, d, m) * (1 - p)


def qm_f2_threshold(n, d, m):
    x = (d - 1) * _dicke_x(n, d, m)
    return x / (1 + x)


def dicke_value(n, m, p):
    """Dicke criterion on qubit dicke-iso; mu times the qm f=2 value."""
    return min(m, n - m) * qm_f2_value(n, 2, m, p)


def ppt_value(n, d, alpha):
    """-(least eigenvalue) of the partial transpose of ghz-iso, any proper block."""
    return alpha / d - (1 - alpha) / d ** n


def ppt_threshold(n, d):
    return 1 / (d ** (n - 1) + 1)


# qm at n=8, d=3, m=2, f=3 is affine in p and equals f-1 = 2 at p = 1.
QM8_AT_P0 = -6.589239445206444

# ring(6), gamma = 0, h = 0: E0, then E_2sep .. E_6sep.
RING6_CHAIN = (
    -(2 + math.sqrt(13)),
    -(3 + math.sqrt(3)),
    -4.5,
    -3.8816489142772923,
    -(2 + math.sqrt(2)),
    -3.0,
)
RING9_E0 = -7.594599567874045
# Fully product states of an odd ring: neighbours at angle pi (n-1)/n.
RING9_E9SEP = 4.5 * math.cos(8 * math.pi / 9)

VALUE_TOL = 1e-9
THRESHOLD_TOL = 1e-6
ENERGY_TOL = 2e-6


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(got, want, tol, what):
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, expected {want!r} within {tol}")


def _csv_rows(stdout, header):
    lines = stdout.splitlines()
    _require(lines and lines[0] == header, f"bad CSV header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _parse_bool(text):
    _require(text in ("true", "false"), f"bad boolean {text!r}")
    return text == "true"


def _one_json(stdout):
    lines = stdout.splitlines()
    _require(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def scan_check(var, expected_value, threshold, grid):
    """Every row: the grid point, the closed-form value, and a violated
    flag that agrees with the exact threshold (points within 1e-9 of it
    are not judged)."""

    def check(stdout):
        rows = _csv_rows(stdout, f"{var},value,violated")
        _require(len(rows) == len(grid), f"expected {len(grid)} rows, got {len(rows)}")
        for (x_text, v_text, flag_text), x_want in zip(rows, grid):
            x, v, flag = float(x_text), float(v_text), _parse_bool(flag_text)
            _close(x, x_want, 1e-12, "grid point")
            _close(v, expected_value(x), VALUE_TOL, f"value at {var}={x}")
            if abs(x - threshold) > 1e-9:
                _require(flag == (x > threshold),
                         f"violated={flag} at {var}={x}, threshold {threshold}")

    return check


def threshold_check(family, crit, var, threshold):
    def check(stdout):
        out = _one_json(stdout)
        _require(out["family"] == family and out["criterion"] == crit and out["var"] == var,
                 f"wrong header in {out!r}")
        _close(out["threshold"], threshold, THRESHOLD_TOL, f"{crit} threshold")

    return check


def report_check(name, expected_value, tol=VALUE_TOL):
    def check(stdout):
        out = _one_json(stdout)
        _require(out["name"] == name, f"report name {out['name']!r}, expected {name!r}")
        _close(out["value"], expected_value, tol, f"{name} value")
        _require(out["violated"] == (out["value"] > _report_tol(out)),
                 f"violated flag disagrees with value in {out!r}")

    return check


def _report_tol(out):
    f = out["params"].get("f")
    return (f - 2 if f is not None else 0) + 1e-10


def gap_check(ks, e0, chain, kT):
    """Manybody CSV row at h = 0: energies against references, chain
    ordered, detected k in range, ground-state cgme in [0, sqrt 2]."""
    header = ",".join(["h", "gamma", "kT", "E0"] + [f"E_{k}sep" for k in ks]
                      + ["detected_k", "cgme_ground"])

    def check(stdout):
        rows = _csv_rows(stdout, header)
        _require(len(rows) == 1, f"expected one row, got {len(rows)}")
        row = rows[0]
        _close(float(row[2]), kT, 0.0, "kT")
        got_e0 = float(row[3])
        _close(got_e0, e0, 1e-9, "E0")
        energies = [float(x) for x in row[4:4 + len(ks)]]
        for k, got, want in zip(ks, energies, chain):
            _close(got, want, ENERGY_TOL, f"E_{k}sep")
        chain_all = [got_e0] + energies
        _require(all(a < b for a, b in zip(chain_all, chain_all[1:])),
                 f"gap chain not ordered: {chain_all}")
        detected = int(row[4 + len(ks)])
        _require(detected == 0 or detected in ks, f"detected_k {detected} not a requested k")
        cgme = float(row[5 + len(ks)])
        _require(0.0 <= cgme <= math.sqrt(2) + 1e-12, f"cgme {cgme} out of range")

    return check


def qss_simulate_check(rounds, eavesdrop):
    def check(stdout):
        out = _one_json(stdout)
        _require(out["rounds"] == rounds and out["eavesdrop"] is eavesdrop, f"bad header {out!r}")
        sigma = math.sqrt(0.25 / rounds)
        _require(abs(out["sift_rate"] - 0.5) <= 5 * sigma,
                 f"sift_rate {out['sift_rate']} beyond 5 sigma of 1/2")
        if not eavesdrop:
            _require(out["match_rate"] == 1.0, f"honest match_rate {out['match_rate']} != 1")

    return check


def qss_verify_check(eavesdrop):
    want = 0.0 if eavesdrop else 0.5

    def check(stdout):
        out = _one_json(stdout)
        _require(out["name"] == "qss_verify", f"bad report {out!r}")
        _close(out["value"], want, 1e-10, "qss verify value")
        _require(out["violated"] is (not eavesdrop), f"verify violated={out['violated']}")

    return check


def unstable_check(n_rows):
    def check(stdout):
        rows = _csv_rows(stdout, "t,B_minus,B_plus,singlet_value")
        _require(len(rows) == n_rows, f"expected {n_rows} rows, got {len(rows)}")
        for t, b_minus, b_plus, singlet in rows:
            b_minus, b_plus = float(b_minus), float(b_plus)
            _require(b_minus <= b_plus, f"b_minus {b_minus} > b_plus {b_plus} at t={t}")
            _require(-2 - 1e-9 <= b_minus and b_plus <= 2 + 1e-9,
                     f"local bounds [{b_minus}, {b_plus}] outside [-2, 2] at t={t}")
            _require(math.isfinite(float(singlet)), f"singlet value {singlet} at t={t}")

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _g(x):
    return repr(float(x))


def _grid(start, stop, step):
    """The grid multisep's scan evaluates (cli._grid, restated)."""
    values, i, x = [], 0, start
    while x <= stop + 1e-12:
        values.append(min(x, stop))
        i += 1
        x = start + i * step
    return values


def _bracket(rng, threshold):
    """Seeded bisection bracket strictly around the threshold."""
    lo = rng.uniform(0.0, 0.5) * threshold
    hi = threshold + rng.uniform(0.5, 1.0) * (1.0 - threshold)
    return lo, hi


def _probe(rng, n, d):
    a, b = rng.sample(range(d), 2)
    return f"{str(a) * n},{str(b) * n}"


def _scan(rng, label, family, params, crit_args, var, step, expected_value, threshold):
    start = rng.uniform(0.0, step)
    grid = _grid(start, 1.0, step)
    argv = (["scan", "--family", family] + params + crit_args
            + ["--start", _g(start), "--stop", "1", "--step", _g(step)])
    return Job(label, argv, scan_check(var, expected_value, threshold, grid))


def _threshold(rng, label, family, params, crit_args, crit, var, threshold):
    lo, hi = _bracket(rng, threshold)
    argv = (["threshold", "--family", family] + params + crit_args
            + ["--lo", _g(lo), "--hi", _g(hi)])
    return Job(label, argv, threshold_check(family, crit, var, threshold))


def sweeps(rng, scratch):
    """Many small criterion evaluations: fine scans and 1e-8 bisections."""
    jobs = []
    ghz44 = ["--n", "4", "--d", "4"]
    for f in (2, 3, 4):
        args = ["--crit", "q0", "--f", str(f)]
        jobs.append(_scan(rng, f"scan-q0-f{f}", "ghz-iso", ghz44, args, "alpha", 0.01,
                          lambda a: q0_value(4, 4, a), q0_threshold(4, 4, f)))
        jobs.append(_threshold(rng, f"thr-q0-f{f}", "ghz-iso", ghz44, args, "q0", "alpha",
                               q0_threshold(4, 4, f)))
    for n, d, k in ((4, 4, 3), (4, 4, 4), (5, 3, 3), (3, 2, 2), (6, 2, 2)):
        params = ["--n", str(n), "--d", str(d)]
        crit = "gme" if k == 2 else "ksep"
        args = ["--crit", crit, "--probe", _probe(rng, n, d)]
        if k > 2:
            args += ["--k", str(k)]
        jobs.append(_scan(rng, f"scan-{crit}-k{k}", "ghz-iso", params, args, "alpha", 0.01,
                          lambda a, n=n, d=d, k=k: ghz_ksep_value(n, d, k, a),
                          ghz_ksep_threshold(n, d, k)))
        jobs.append(_threshold(rng, f"thr-{crit}-k{k}", "ghz-iso", params, args, crit,
                               "alpha", ghz_ksep_threshold(n, d, k)))
    for n, m in ((4, 1), (6, 1), (8, 1), (7, 2)):
        params = ["--n", str(n), "--m", str(m)]
        args = ["--crit", "dicke"]
        jobs.append(_scan(rng, "scan-dicke", "dicke-iso", params, args, "p", 0.01,
                          lambda p, n=n, m=m: dicke_value(n, m, p),
                          qm_f2_threshold(n, 2, m)))
        jobs.append(_threshold(rng, "thr-dicke", "dicke-iso", params, args, "dicke", "p",
                               qm_f2_threshold(n, 2, m)))
    for n, d, m in ((4, 3, 1), (5, 3, 2), (4, 4, 1)):
        params = ["--n", str(n), "--d", str(d), "--m", str(m)]
        args = ["--crit", "qm", "--f", "2"]
        jobs.append(_scan(rng, "scan-qm", "dicke-iso", params, args, "p", 0.01,
                          lambda p, n=n, d=d, m=m: qm_f2_value(n, d, m, p),
                          qm_f2_threshold(n, d, m)))
        jobs.append(_threshold(rng, "thr-qm", "dicke-iso", params, args, "qm", "p",
                               qm_f2_threshold(n, d, m)))
    return jobs


def large_n(rng, scratch):
    """A few big evaluations dominated by partition enumeration."""
    jobs = []
    for n in (14, 16):
        alpha = rng.uniform(0.05, 0.95)
        jobs.append(Job(f"gme-n{n}", [
            "crit", "--crit", "gme", "--probe", _probe(rng, n, 2),
            "--family", "ghz-iso", "--n", str(n), "--alpha", _g(alpha),
        ], report_check("gme", ghz_ksep_value(n, 2, 2, alpha))))
    for n, k in ((10, 3), (9, 4)):
        alpha = rng.uniform(0.05, 0.95)
        jobs.append(Job(f"ksep-n{n}-k{k}", [
            "crit", "--crit", "ksep", "--k", str(k), "--probe", _probe(rng, n, 2),
            "--family", "ghz-iso", "--n", str(n), "--alpha", _g(alpha),
        ], report_check("ksep", ghz_ksep_value(n, 2, k, alpha))))
    p = rng.uniform(0.05, 0.95)
    jobs.append(Job("qm-n8-d3", [
        "crit", "--crit", "qm", "--m", "2", "--f", "3",
        "--family", "dicke-iso", "--n", "8", "--d", "3", "--p", _g(p),
    ], report_check("qm", QM8_AT_P0 + (2.0 - QM8_AT_P0) * p)))
    for n, m in ((16, 3), (20, 1)):
        p = rng.uniform(0.05, 0.95)
        jobs.append(Job(f"dicke-n{n}-m{m}", [
            "crit", "--crit", "dicke", "--m", str(m),
            "--family", "dicke-iso", "--n", str(n), "--p", _g(p),
        ], report_check("dicke_gme", dicke_value(n, m, p))))
    return jobs


def gaps(rng, scratch):
    """Product-state optimiser (ring(6) chain) and dense Hamiltonian work (ring(9))."""
    return [
        Job("ring6-chain", [
            "manybody", "--n", "6", "--lattice", "ring", "--gamma", "0",
            "--restarts", "2", "--seed", str(rng.randrange(2 ** 31)),
        ], gap_check(range(2, 7), RING6_CHAIN[0], RING6_CHAIN[1:], 0.0)),
        Job("ring9-thermal", [
            "manybody", "--n", "9", "--lattice", "ring", "--gamma", "0", "--ks", "9",
            "--kT", "0.5", "--restarts", "2", "--seed", str(rng.randrange(2 ** 31)),
        ], gap_check([9], RING9_E0, (RING9_E9SEP,), 0.5)),
    ]


def dense(rng, scratch):
    """Explicit matrices: PPT via to_dense, QSS rounds, CHSH sphere grids."""
    jobs = []
    for n in (3, 4):
        for d in (2, 3, 4):
            params = ["--n", str(n), "--d", str(d)]
            block = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            args = ["--crit", "ppt", "--block", ",".join(map(str, block))]
            if (n, d) == (4, 4):
                # 256^2 to_dense per point: a coarse scan, not a bisection.
                jobs.append(_scan(rng, "scan-ppt-n4-d4", "ghz-iso", params, args, "alpha", 0.25,
                                  lambda a: ppt_value(4, 4, a), ppt_threshold(4, 4)))
            else:
                jobs.append(_threshold(rng, f"thr-ppt-n{n}-d{d}", "ghz-iso", params, args,
                                       "ppt", "alpha", ppt_threshold(n, d)))
    for eavesdrop, rounds in ((False, 20000), (True, 10000)):
        path = str(scratch / f"qss-{'eve' if eavesdrop else 'honest'}.json")
        flag = ["--eavesdrop"] if eavesdrop else []
        jobs.append(Job("qss-simulate", [
            "qss", "simulate", "--rounds", str(rounds), "--seed", str(rng.randrange(2 ** 31)),
            "--emit-expectations", path, *flag,
        ], qss_simulate_check(rounds, eavesdrop)))
        jobs.append(Job("qss-verify", ["qss", "verify", "--expectations", path],
                        qss_verify_check(eavesdrop)))
    t_start, t_step = rng.uniform(0.0, 0.25), 0.25
    angles = [_g(rng.uniform(-math.pi, math.pi)) for _ in range(8)]
    names = ("alpha1", "phi1", "alpha2", "phi2", "beta1", "psi1", "beta2", "psi2")
    argv = ["unstable", "--t-start", _g(t_start), "--t-stop", "2", "--t-step", _g(t_step),
            "--gamma1", _g(rng.uniform(0.0, 0.5)), "--gamma2", _g(rng.uniform(0.0, 0.5))]
    for name, value in zip(names, angles):
        argv.append(f"--{name}={value}")
    jobs.append(Job("unstable", argv, unstable_check(len(_grid(t_start, 2.0, t_step)))))
    return jobs


_BUILDERS = {"sweeps": sweeps, "large-n": large_n, "gaps": gaps, "dense": dense}


def build(name, seed, scratch):
    """The job list of one pass of workload `name` for `seed`.

    `scratch` is a directory for files the jobs exchange (QSS
    expectations); it lives inside the benchmark's output directory.
    """
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), scratch)
