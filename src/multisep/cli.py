"""Command-line front-end.

Subcommands: state, crit, measure, scan, threshold, manybody, qss,
unstable.  Scans emit CSV (param, value, violated); criterion reports
are JSON objects {name, params, probe, value, violated}.  All floating
point output uses 17 significant digits, '.' decimal, no locale.  Exit
codes: 0 success, 2 usage error, 3 resource cap exceeded, 4 numerical
non-convergence.  Commands that sample take --seed (default 0); given
identical flags and seeds every output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import criteria, manybody, measures, unstable
from .applications import QssSimulator, qss_verification_value
from .errors import ConvergenceError, DomainError, ResourceError
from .states import StateSpec, as_provider, family_state, make_state, mix_white_noise
from .tensor import (
    DensityMatrix,
    StateVector,
    load_density_matrix,
    save_density_matrix,
    vec_to_dm,
)

_FAMILY_VARS = {
    "ghz-iso": "alpha",
    "dicke-iso": "p",
    "ghz-w": "alpha",
    "gmd": "alpha",
}


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_lines(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_probe(text):
    """Probe pair from 'a,b' with one decimal digit per site, e.g. 000,111."""
    if text is None:
        raise DomainError("this criterion needs --probe, e.g. --probe 000,111")
    halves = text.split(",")
    if len(halves) != 2 or not all(h and set(h) <= set("0123456789") for h in halves):
        raise DomainError(
            f"--probe {text!r} must be two digit strings separated by a comma, e.g. 000,111"
        )
    a, b = halves
    return criteria.ProbePair(tuple(int(c) for c in a), tuple(int(c) for c in b))


def _load_state(args, need_dense=False):
    """State from --in (JSON file) or a --family specification."""
    if getattr(args, "infile", None):
        return load_density_matrix(args.infile, max_dim=args.max_dim)
    if getattr(args, "family", None):
        rep = "dense" if need_dense else "provider"
        return family_state(
            args.family, n=args.n, d=args.d, m=args.m,
            alpha=args.alpha, beta=args.beta, p=args.p, representation=rep,
        )
    raise DomainError("provide a state via --in FILE or --family NAME")


def _family_builder(args):
    family = args.family
    if family not in _FAMILY_VARS:
        raise DomainError(f"unknown family {family!r}")
    var = args.var or _FAMILY_VARS[family]

    def build(value, need_dense):
        kwargs = {
            "n": args.n, "d": args.d, "m": args.m,
            "alpha": args.alpha, "beta": args.beta, "p": args.p,
        }
        if var not in kwargs:
            raise DomainError(f"cannot sweep {var!r}")
        kwargs[var] = value
        rep = "dense" if need_dense else "provider"
        return family_state(family, representation=rep, **kwargs)

    return build, var


def _evaluate(args, state):
    crit = args.crit
    tol = args.tol
    if crit == "ppt":
        if not isinstance(state, DensityMatrix):
            state = as_provider(state).to_dense(max_dim=args.max_dim, validate=False)
        return criteria.ppt_check(state, args.block or [0], tol=tol)
    if crit == "bipartite":
        return criteria.bipartite_value(state, _parse_probe(args.probe), tol=tol)
    if crit == "gme":
        return criteria.gme_value(state, _parse_probe(args.probe), tol=tol)
    if crit == "ksep":
        return criteria.ksep_value(state, args.k, _parse_probe(args.probe), tol=tol)
    if crit == "dicke":
        return criteria.dicke_gme_value(state, args.m, tol=tol)
    if crit == "q0":
        return criteria.q0_value(state, f=args.f, tol=tol)
    if crit == "qm":
        return criteria.qm_value(state, args.m, f=args.f, tol=tol)
    if crit == "double-class":
        return criteria.double_class_value(state, tol=tol)
    if crit == "ntuple-class":
        return criteria.ntuple_class_value(state, tol=tol)
    if crit == "fw-ghz3":
        return criteria.fidelity_witness_value(state, "ghz3", tol=tol)
    if crit == "fw-w3":
        return criteria.fidelity_witness_value(state, "w3", tol=tol)
    raise DomainError(f"unknown criterion {crit!r}")


_NEEDS_PROBE = {"bipartite", "gme", "ksep"}
_NEEDS_DENSE = {"ppt"}


def cmd_state(args):
    if args.family:
        rho = family_state(
            args.family, n=args.n, d=args.d, m=args.m,
            alpha=args.alpha, beta=args.beta, p=args.p,
        )
    else:
        spec = StateSpec(
            kind=args.kind, n=args.n, d=args.d, m=args.m,
            label=args.label, labels=tuple(int(c) for c in args.labels or ""),
        )
        state = make_state(spec)
        rho = vec_to_dm(state) if isinstance(state, StateVector) else state
        if args.noise is not None:
            rho = mix_white_noise(rho, args.noise)
    if args.out is None or args.out == "-":
        save_density_matrix(rho, "/dev/stdout")
    else:
        save_density_matrix(rho, args.out)
    return 0


def cmd_crit(args):
    state = _load_state(args, need_dense=args.crit in _NEEDS_DENSE)
    report = _evaluate(args, state)
    _write_lines([report.to_json()], args.out)
    return 0


def cmd_measure(args):
    rho = load_density_matrix(args.infile, max_dim=args.max_dim)
    if args.measure == "cgme-bound":
        res = measures.cgme_lower_bound(rho, _parse_probe(args.probe))
    else:
        evals, evecs = np.linalg.eigh(rho.mat)
        if evals[-1] < 1.0 - 1e-9:
            raise DomainError(
                f"{args.measure} needs a pure state; largest eigenvalue is {evals[-1]}"
            )
        psi = StateVector(rho.shape, evecs[:, -1])
        if args.measure == "cgme":
            res = measures.cgme_pure(psi)
        elif args.measure == "schmidt-rank":
            cut = [int(c) for c in args.cut.split(",")]
            rank = measures.schmidt_rank(psi, cut)
            _write_lines([json.dumps({"name": "schmidt_rank", "cut": cut, "value": rank})],
                         args.out)
            return 0
        else:
            raise DomainError(f"unknown measure {args.measure!r}")
    _write_lines([json.dumps({"name": res.name, "value": res.value, "exact": res.exact})],
                 args.out)
    return 0


def _grid(start, stop, step):
    if step <= 0:
        raise DomainError(f"step must be positive, got {step}")
    if start > stop:
        return []
    values = []
    x = start
    i = 0
    while x <= stop + 1e-12:
        values.append(min(x, stop))
        i += 1
        x = start + i * step
    return values


def cmd_scan(args):
    build, var = _family_builder(args)
    need_dense = args.crit in _NEEDS_DENSE
    lines = [f"{var},value,violated"]
    for value in _grid(args.start, args.stop, args.step):
        report = _evaluate(args, build(value, need_dense))
        lines.append(f"{_fmt(float(value))},{_fmt(report.value)},{_fmt(report.violated)}")
    _write_lines(lines, args.out)
    return 0


def cmd_threshold(args):
    build, var = _family_builder(args)
    need_dense = args.crit in _NEEDS_DENSE

    def detected(value):
        return _evaluate(args, build(value, need_dense)).violated

    lo, hi = args.lo, args.hi
    det_lo, det_hi = detected(lo), detected(hi)
    if det_lo == det_hi:
        raise DomainError(
            f"no detection change in bracket [{lo}, {hi}] "
            f"(both {'violated' if det_lo else 'not violated'})"
        )
    while hi - lo > args.threshold_tol:
        mid = 0.5 * (lo + hi)
        if detected(mid) == det_lo:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    _write_lines([json.dumps({
        "family": args.family, "criterion": args.crit, "var": var,
        "threshold": float(f"{root:.17g}"), "tol": args.threshold_tol,
    })], args.out)
    return 0


def cmd_manybody(args):
    lattice = manybody.Lattice.ring(args.n) if args.lattice == "ring" \
        else manybody.Lattice.chain(args.n)
    ks = [int(x) for x in args.ks.split(",")] if args.ks else list(range(2, args.n + 1))
    h_values = _grid(args.h_start, args.h_stop, args.h_step)
    header = ["h", "gamma", "kT", "E0"] + [f"E_{k}sep" for k in ks] + [
        "detected_k", "cgme_ground"]
    lines = [",".join(header)]
    nonconverged = False
    for h in h_values:
        params = manybody.HeisenbergParams.from_gamma(args.gamma, h=h)
        h_mat = manybody.heisenberg_hamiltonian(lattice, params)
        report = manybody.entanglement_gaps(
            h_mat, ks=ks, restarts=args.restarts, seed=args.seed)
        nonconverged = nonconverged or not all(report.converged.values())
        if args.kT is not None:
            rho = manybody.thermal_state(h_mat, args.kT)
            report.kT = args.kT
            report.z = manybody.partition_function(h_mat, args.kT)
        else:
            rho = manybody.ground_state_dm(h_mat)
        detected = 0
        for k in sorted(ks):
            if manybody.gap_witness_detects(rho, report, k):
                detected = k
        evals, evecs = np.linalg.eigh(h_mat)
        ground = StateVector(rho.shape, evecs[:, 0])
        cgme = measures.cgme_pure(ground).value
        row = [h, args.gamma, args.kT if args.kT is not None else 0.0, report.e0]
        row += [report.energies[k] for k in ks]
        row += [detected, cgme]
        lines.append(",".join(_fmt(float(x) if not isinstance(x, int) else x) for x in row))
    _write_lines(lines, args.out)
    if nonconverged:
        print("warning: at least one product-state minimisation did not converge",
              file=sys.stderr)
        return 4
    return 0


def cmd_qss(args):
    if args.qss_cmd == "simulate":
        sim = QssSimulator(eavesdrop=args.eavesdrop)
        summary = sim.run(args.rounds, seed=args.seed)
        if args.emit_expectations:
            expectations = sim.exact_expectations(shots=args.shots, seed=args.seed)
            payload = {
                "strings": [list(s) for s in expectations],
                "values": [float(v) for v in expectations.values()],
            }
            with open(args.emit_expectations, "w") as fh:
                json.dump(payload, fh)
        _write_lines([json.dumps(summary)], args.out)
        return 0
    if args.qss_cmd == "verify":
        with open(args.expectations) as fh:
            payload = json.load(fh)
        expectations = {
            tuple(int(x) for x in s): v
            for s, v in zip(payload["strings"], payload["values"])
        }
        report = qss_verification_value(expectations)
        _write_lines([report.to_json()], args.out)
        return 0
    raise DomainError("qss needs a subcommand: simulate or verify")


def cmd_unstable(args):
    def setting(alpha, phi, t):
        return unstable.EffectiveOpParams(
            alpha=alpha, phi=phi, t=t, gamma1=args.gamma1, gamma2=args.gamma2)

    lines = ["t,B_minus,B_plus,singlet_value"]
    nonconverged = False
    for t in _grid(args.t_start, args.t_stop, args.t_step):
        settings = (
            setting(args.alpha1, args.phi1, t),
            setting(args.alpha2, args.phi2, t),
            setting(args.beta1, args.psi1, t),
            setting(args.beta2, args.psi2, t),
        )
        bounds = unstable.chsh_bound(settings, grid=(args.grid_theta, args.grid_phi))
        nonconverged = nonconverged or not bounds.converged
        singlet = unstable.singlet_value(settings)
        lines.append(",".join(_fmt(v) for v in
                              (float(t), bounds.b_minus, bounds.b_plus, singlet)))
    _write_lines(lines, args.out)
    return 4 if nonconverged else 0


def _add_common(parser):
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=criteria.DEFAULT_TOL)
    parser.add_argument("--max-dim", type=int, default=None, dest="max_dim")


def _add_family(parser):
    parser.add_argument("--family", choices=sorted(_FAMILY_VARS))
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--beta", type=float, default=0.0)
    parser.add_argument("--p", type=float, default=None)


def _add_crit(parser):
    parser.add_argument("--crit", required=True,
                        choices=["ppt", "bipartite", "gme", "ksep", "dicke", "q0", "qm",
                                 "double-class", "ntuple-class", "fw-ghz3", "fw-w3"])
    parser.add_argument("--probe", help="probe pair, e.g. 000,111")
    parser.add_argument("--block", type=lambda s: [int(c) for c in s.split(",")],
                        help="subsystems for ppt, e.g. 0 or 0,1")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--f", type=int, default=2)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multisep",
        description="Multipartite separability criteria and applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="construct a state and write it as JSON")
    _add_common(p)
    _add_family(p)
    p.add_argument("--kind", default="ghz",
                   choices=["ghz", "w", "dicke", "smolin", "bell", "basis-product"])
    p.add_argument("--label", default="phi+")
    p.add_argument("--labels", default=None, help="basis-product labels, e.g. 010")
    p.add_argument("--noise", type=float, default=None,
                   help="mix with white noise: p*rho + (1-p)*I/dim")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("crit", help="evaluate a criterion on a state")
    _add_common(p)
    _add_family(p)
    _add_crit(p)
    p.add_argument("--in", dest="infile", default=None, help="density-matrix JSON file")
    p.set_defaults(func=cmd_crit)

    p = sub.add_parser("measure", help="entanglement measures")
    _add_common(p)
    p.add_argument("--measure", required=True, choices=["cgme", "cgme-bound", "schmidt-rank"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--probe", default=None)
    p.add_argument("--cut", default="0")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("scan", help="sweep a family parameter against a criterion")
    _add_common(p)
    _add_family(p)
    _add_crit(p)
    p.add_argument("--var", default=None, help="parameter to sweep (family default)")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("threshold", help="bisect a detection threshold")
    _add_common(p)
    _add_family(p)
    _add_crit(p)
    p.add_argument("--var", default=None)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--threshold-tol", type=float, default=1e-8, dest="threshold_tol")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("manybody", help="entanglement gaps of a Heisenberg lattice")
    _add_common(p)
    p.add_argument("--lattice", choices=["chain", "ring"], default="ring")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--h-start", type=float, default=0.0, dest="h_start")
    p.add_argument("--h-stop", type=float, default=0.0, dest="h_stop")
    p.add_argument("--h-step", type=float, default=1.0, dest="h_step")
    p.add_argument("--kT", type=float, default=None)
    p.add_argument("--ks", default=None, help="comma-separated k values (default 2..n)")
    p.add_argument("--restarts", type=int, default=32)
    p.set_defaults(func=cmd_manybody)

    p = sub.add_parser("qss", help="quantum secret sharing simulation/verification")
    _add_common(p)
    qss_sub = p.add_subparsers(dest="qss_cmd", required=True)
    ps = qss_sub.add_parser("simulate")
    _add_common(ps)
    ps.add_argument("--rounds", type=int, default=1000)
    ps.add_argument("--eavesdrop", action="store_true")
    ps.add_argument("--emit-expectations", default=None, dest="emit_expectations")
    ps.add_argument("--shots", type=int, default=None,
                    help="binomial sampling noise on emitted expectations")
    ps.set_defaults(func=cmd_qss)
    pv = qss_sub.add_parser("verify")
    _add_common(pv)
    pv.add_argument("--expectations", required=True)
    pv.set_defaults(func=cmd_qss)

    p = sub.add_parser("unstable", help="time-dependent CHSH bounds")
    _add_common(p)
    p.add_argument("--alpha1", type=float, default=0.0)
    p.add_argument("--phi1", type=float, default=0.0)
    p.add_argument("--alpha2", type=float, default=0.0)
    p.add_argument("--phi2", type=float, default=0.0)
    p.add_argument("--beta1", type=float, default=0.7853981633974483)
    p.add_argument("--psi1", type=float, default=0.0)
    p.add_argument("--beta2", type=float, default=-0.7853981633974483)
    p.add_argument("--psi2", type=float, default=0.0)
    p.add_argument("--gamma1", type=float, default=0.0)
    p.add_argument("--gamma2", type=float, default=0.0)
    p.add_argument("--t-start", type=float, default=0.0, dest="t_start")
    p.add_argument("--t-stop", type=float, default=0.0, dest="t_stop")
    p.add_argument("--t-step", type=float, default=1.0, dest="t_step")
    p.add_argument("--grid-theta", type=int, default=64, dest="grid_theta")
    p.add_argument("--grid-phi", type=int, default=128, dest="grid_phi")
    p.set_defaults(func=cmd_unstable)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
