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
import functools
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import criteria, manybody, measures, unstable
from .applications import QssSimulator, qss_verification_value
from .errors import DomainError, ResourceError
from .states import StateSpec, family_state, family_weights, make_state, mix_white_noise
from .tensor import (
    StateVector,
    _check_dense_bytes,
    load_density_matrix,
    save_density_matrix,
    vec_to_dm,
)

# Points one --start/--stop/--step grid may hold.
_MAX_GRID_POINTS = 1_000_000

# The mixing weights that scan and threshold may sweep per family; the
# first is the default --var.
_FAMILY_VARS = {
    "ghz-iso": ("alpha",),
    "dicke-iso": ("p",),
    "ghz-w": ("alpha", "beta"),
    "gmd": ("alpha", "beta"),
}


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@contextmanager
def _file_errors(path, what, verb="read"):
    """Report a file that cannot be opened, or whose contents do not parse,
    as a usage error naming the path."""
    try:
        yield
    except DomainError:
        raise
    except OSError as exc:
        raise DomainError(f"cannot {verb} {what} {path!r}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise DomainError(f"{what} {path!r} does not have the expected layout: {exc}") from exc


def _write_lines(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with _file_errors(out, "output file", "write"), open(out, "w") as fh:
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


def _load_density_matrix(args):
    with _file_errors(args.infile, "density-matrix file"):
        return load_density_matrix(args.infile)


def _family_kwargs(args):
    """The family parameters of the command line, as family_state keywords."""
    return {"n": args.n, "d": args.d, "m": args.m,
            "alpha": args.alpha, "beta": args.beta, "p": args.p}


def _load_state(args):
    """State from --in (JSON file) or a --family specification."""
    if getattr(args, "infile", None):
        return _load_density_matrix(args)
    if getattr(args, "family", None):
        return family_state(args.family, representation="provider", **_family_kwargs(args))
    raise DomainError("provide a state via --in FILE or --family NAME")


def _family_builder(args):
    """(build, var): build(value) is the family's provider with the
    mixing weight var at value.

    The family is built once, at the first point; every point reweights
    the provider of the point before, so all of them share one support
    table and one store of query plans, which lives as long as build.
    """
    family = args.family
    if family not in _FAMILY_VARS:
        raise DomainError(f"unknown family {family!r}")
    var = args.var or _FAMILY_VARS[family][0]
    if var not in _FAMILY_VARS[family]:
        raise DomainError(f"--var {var!r} is not a mixing weight of {family}; "
                          f"choose from {', '.join(_FAMILY_VARS[family])}")
    provider = None

    def build(value):
        nonlocal provider
        weights = {"alpha": args.alpha, "beta": args.beta, "p": args.p, var: value}
        if provider is None:
            provider = family_state(family, representation="provider", n=args.n, d=args.d,
                                    m=args.m, **weights)
        provider = provider.reweighted(*family_weights(family, n=args.n, **weights))
        return provider

    return build, var


def _check_tolerance(flag, tol):
    # written so that a NaN tolerance fails it too
    if not 0 <= tol < math.inf:
        raise DomainError(f"{flag} must be finite and non-negative, got {tol}")


def _criterion(args):
    """The command's criterion as a function from a state to its report;
    its flags are checked and parsed here, once per command."""
    crit = args.crit
    tol = args.tol
    _check_tolerance("--tol", tol)
    if crit == "ppt":
        block = args.block or [0]
        return lambda state: criteria.ppt_check(state, block, tol=tol)
    if crit in ("bipartite", "gme", "ksep"):
        probe = _parse_probe(args.probe)
        if crit == "bipartite":
            return lambda state: criteria.bipartite_value(state, probe, tol=tol)
        if crit == "gme":
            return lambda state: criteria.gme_value(state, probe, tol=tol)
        return lambda state: criteria.ksep_value(state, args.k, probe, tol=tol)
    if crit == "dicke":
        return lambda state: criteria.dicke_gme_value(state, args.m, tol=tol)
    if crit == "q0":
        return lambda state: criteria.q0_value(state, f=args.f, tol=tol)
    if crit == "qm":
        return lambda state: criteria.qm_value(state, args.m, f=args.f, tol=tol)
    if crit == "double-class":
        return lambda state: criteria.double_class_value(state, tol=tol)
    if crit == "ntuple-class":
        return lambda state: criteria.ntuple_class_value(state, tol=tol)
    if crit == "fw-ghz3":
        return lambda state: criteria.fidelity_witness_value(state, "ghz3", tol=tol)
    if crit == "fw-w3":
        return lambda state: criteria.fidelity_witness_value(state, "w3", tol=tol)
    raise DomainError(f"unknown criterion {crit!r}")


def cmd_state(args):
    if args.family:
        rho = family_state(args.family, **_family_kwargs(args))
    else:
        spec = StateSpec(
            kind=args.kind, n=args.n, d=args.d, m=args.m,
            label=args.label, labels=tuple(args.labels or ()),
        )
        state = make_state(spec)
        rho = vec_to_dm(state) if isinstance(state, StateVector) else state
        if args.noise is not None:
            rho = mix_white_noise(rho, args.noise)
    out = "/dev/stdout" if args.out is None or args.out == "-" else args.out
    with _file_errors(out, "output file", "write"):
        save_density_matrix(rho, out)
    return 0


def cmd_crit(args):
    state = _load_state(args)
    report = _criterion(args)(state)
    _write_lines([report.to_json()], args.out)
    return 0


def cmd_measure(args):
    rho = _load_density_matrix(args)
    if args.measure == "cgme-bound":
        res = measures.cgme_lower_bound(rho, _parse_probe(args.probe))
    else:
        total = rho.shape.total
        # the matrix, eigh's copy of it, LAPACK's complex and real
        # workspaces and the eigenvectors
        _check_dense_bytes(80 * total ** 2,
                           f"the eigendecomposition of the {total} x {total} density matrix")
        evals, evecs = np.linalg.eigh(rho.mat)
        if evals[-1] < 1.0 - 1e-9:
            raise DomainError(
                f"{args.measure} needs a pure state; largest eigenvalue is {evals[-1]}"
            )
        psi = StateVector(rho.shape, evecs[:, -1])
        if args.measure == "cgme":
            res = measures.cgme_pure(psi)
        elif args.measure == "schmidt-rank":
            rank = measures.schmidt_rank(psi, args.cut)
            _write_lines([json.dumps({"name": "schmidt_rank", "cut": args.cut, "value": rank})],
                         args.out)
            return 0
        else:
            raise DomainError(f"unknown measure {args.measure!r}")
    _write_lines([json.dumps({"name": res.name, "value": res.value, "exact": res.exact})],
                 args.out)
    return 0


def _grid(start, stop, step):
    """start, start + step, ... while at most stop + 1e-12, the last
    clipped to stop; the points are counted before any is built."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError(f"grid start, stop and step must be finite, got {start}, {stop}, {step}")
    if step <= 0:
        raise DomainError(f"step must be positive, got {step}")
    if start > stop:
        return []

    def inside(i):
        return start + i * step <= stop + 1e-12

    estimate = (stop + 1e-12 - start) / step + 1
    if estimate > _MAX_GRID_POINTS:
        raise ResourceError(f"grid of about {estimate:.3g} points exceeds {_MAX_GRID_POINTS}")
    # start + i * step rounds monotonically in i, so the points form a
    # prefix; correct the estimate to its exact length (inside(0) holds)
    count = int(estimate)
    while not inside(count - 1):
        count -= 1
    while inside(count):
        count += 1
        if count > _MAX_GRID_POINTS:
            raise ResourceError(f"grid of more than {_MAX_GRID_POINTS} points")
    # the first point is start itself, so -0.0 stays -0.0
    return [min(start + i * step if i else start, stop) for i in range(count)]


def cmd_scan(args):
    build, var = _family_builder(args)
    evaluate = _criterion(args)
    lines = [f"{var},value,violated"]
    for value in _grid(args.start, args.stop, args.step):
        report = evaluate(build(value))
        lines.append(f"{_fmt(float(value))},{_fmt(report.value)},{_fmt(report.violated)}")
    _write_lines(lines, args.out)
    return 0


def cmd_threshold(args):
    build, var = _family_builder(args)
    evaluate = _criterion(args)

    def detected(value):
        return evaluate(build(value)).violated

    lo, hi = args.lo, args.hi
    _check_tolerance("--threshold-tol", args.threshold_tol)
    det_lo, det_hi = detected(lo), detected(hi)
    if det_lo == det_hi:
        raise DomainError(
            f"no detection change in bracket [{lo}, {hi}] "
            f"(both {'violated' if det_lo else 'not violated'})"
        )
    while hi - lo > args.threshold_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no float left between lo and hi
            break
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
    ks = args.ks or list(range(2, args.n + 1))
    h_values = _grid(args.h_start, args.h_stop, args.h_step)
    header = ["h", "gamma", "kT", "E0"] + [f"E_{k}sep" for k in ks] + [
        "detected_k", "cgme_ground"]
    lines = [",".join(header)]
    warnings = []
    for h in h_values:
        ham = manybody.SpinHamiltonian(
            lattice, manybody.HeisenbergParams.from_gamma(args.gamma, h=h))
        report = manybody.entanglement_gaps(
            ham, ks=ks, restarts=args.restarts, seed=args.seed)
        for k, parts in report.nonconverged.items():
            if parts:
                warnings.append(
                    f"warning: product-state minimisation for k={k} at h={_fmt(float(h))} "
                    f"did not converge in partitions {' '.join(map(str, parts))}")
        energy = manybody.thermal_energy(ham, args.kT)
        detected = max((k for k in ks if report.detects(energy, k)), default=0)
        cgme = measures.cgme_pure(manybody.ground_vector(ham)).value
        row = [h, args.gamma, args.kT if args.kT is not None else 0.0, report.e0]
        row += [report.energies[k] for k in ks]
        row += [detected, cgme]
        lines.append(",".join(_fmt(float(x) if not isinstance(x, int) else x) for x in row))
    _write_lines(lines, args.out)
    for warning in warnings:
        print(warning, file=sys.stderr)
    return 4 if warnings else 0


def _load_expectations(path):
    """{Pauli string: value} from a `qss simulate --emit-expectations` file."""
    with _file_errors(path, "expectations file"), open(path) as fh:
        payload = json.load(fh)
    try:
        return {
            tuple(int(x) for x in s): float(v)
            for s, v in zip(payload["strings"], payload["values"], strict=True)
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(
            f"expectations file {path!r} needs equal-length lists 'strings' "
            f"(of integer labels) and 'values' (of numbers)") from exc


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
            with _file_errors(args.emit_expectations, "expectations file", "write"), \
                    open(args.emit_expectations, "w") as fh:
                json.dump(payload, fh)
        _write_lines([json.dumps(summary)], args.out)
        return 0
    if args.qss_cmd == "verify":
        _check_tolerance("--tol", args.tol)
        report = qss_verification_value(_load_expectations(args.expectations), tol=args.tol)
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
        bounds = unstable.chsh_bound(settings)
        nonconverged = nonconverged or not bounds.converged
        singlet = unstable.singlet_value(settings)
        lines.append(",".join(_fmt(v) for v in
                              (float(t), bounds.b_minus, bounds.b_plus, singlet)))
    _write_lines(lines, args.out)
    return 4 if nonconverged else 0


def _int_list(text):
    """Comma-separated integers, e.g. 0,2 (an argparse type)."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


_SHARED_FLAGS = {
    "n": ("--n", {"type": int, "default": 3}),
    "d": ("--d", {"type": int, "default": 2}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "tol": ("--tol", {"type": float, "default": criteria.DEFAULT_TOL}),
}


def _add_common(parser, *names):
    """--out, plus the shared flags `names` (keys of _SHARED_FLAGS) that
    the command reads, so that no command accepts a flag it ignores."""
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    for name in names:
        flag, kwargs = _SHARED_FLAGS[name]
        parser.add_argument(flag, **kwargs)


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
    parser.add_argument("--block", type=_int_list,
                        help="subsystems for ppt, e.g. 0 or 0,1")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--f", type=int, default=2)


@functools.cache
def build_parser():
    """The process's one parser, built on first use.  parse_args reads it
    without changing it: each call starts from a fresh namespace filled
    from the actions' defaults, and help and usage text are formatted
    when printed, so one call's flags do not reach the next."""
    parser = argparse.ArgumentParser(
        prog="multisep",
        description="Multipartite separability criteria and applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="construct a state and write it as JSON")
    _add_common(p, "n", "d")
    _add_family(p)
    p.add_argument("--kind", default="ghz",
                   choices=["ghz", "w", "dicke", "smolin", "bell", "basis-product"])
    p.add_argument("--label", default="phi+")
    p.add_argument("--labels", type=lambda s: [int(c) for c in s], default=None,
                   help="basis-product labels, e.g. 010")
    p.add_argument("--noise", type=float, default=None,
                   help="mix with white noise: p*rho + (1-p)*I/dim")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("crit", help="evaluate a criterion on a state")
    _add_common(p, "n", "d", "tol")
    _add_family(p)
    _add_crit(p)
    p.add_argument("--in", dest="infile", default=None, help="density-matrix JSON file")
    p.set_defaults(func=cmd_crit)

    p = sub.add_parser("measure", help="entanglement measures")
    _add_common(p)
    p.add_argument("--measure", required=True, choices=["cgme", "cgme-bound", "schmidt-rank"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--probe", default=None)
    p.add_argument("--cut", type=_int_list, default="0")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("scan", help="sweep a family parameter against a criterion")
    _add_common(p, "n", "d", "tol")
    _add_family(p)
    _add_crit(p)
    p.add_argument("--var", default=None,
                   help="mixing weight to sweep: alpha (ghz-iso, default), p (dicke-iso, "
                        "default), alpha (default) or beta (ghz-w, gmd)")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("threshold", help="bisect a detection threshold")
    _add_common(p, "n", "d", "tol")
    _add_family(p)
    _add_crit(p)
    p.add_argument("--var", default=None, help="mixing weight to bisect, as for scan")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--threshold-tol", type=float, default=1e-8, dest="threshold_tol")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser(
        "manybody", help="entanglement gaps of a Heisenberg lattice",
        description="Entanglement gaps of a Heisenberg lattice.  detected_k is the largest "
                    "k whose E_ksep lies above the energy of the Gibbs state at --kT (of the "
                    "ground level without it) by more than the optimiser slack.  E_ksep is "
                    "the least energy a local search over product states found, an upper "
                    "bound on the k-separable minimum: the slack covers incomplete "
                    "convergence only, so a search that misses the global minimum of some "
                    "orbit of k-partitions can report a k it has not proved.  "
                    "cgme_ground is the GME-concurrence of the ground state P e_x / |P e_x|, "
                    "where P projects onto the ground level (eigenvalues within 1e-9 of E0) "
                    "and x is the basis index with the largest P_xx, the smallest such x on "
                    "ties within 1e-9; so it is defined on a degenerate ground level too.")
    _add_common(p, "n", "seed")
    p.add_argument("--lattice", choices=["chain", "ring"], default="ring")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--h-start", type=float, default=0.0, dest="h_start")
    p.add_argument("--h-stop", type=float, default=0.0, dest="h_stop")
    p.add_argument("--h-step", type=float, default=1.0, dest="h_step")
    p.add_argument("--kT", type=float, default=None)
    p.add_argument("--ks", type=_int_list, default=None,
                   help="comma-separated k values (default 2..n)")
    p.add_argument("--restarts", type=int, default=32,
                   help="random product-state starts per searched partition; the search "
                        "covers one k-partition per orbit of the lattice's rotations and "
                        "reflections, and a non-convergence warning names those orbit "
                        "representatives (default 32)")
    p.set_defaults(func=cmd_manybody)

    p = sub.add_parser("qss", help="quantum secret sharing simulation/verification")
    qss_sub = p.add_subparsers(dest="qss_cmd", required=True)
    ps = qss_sub.add_parser("simulate")
    _add_common(ps, "seed")
    ps.add_argument("--rounds", type=int, default=1000)
    ps.add_argument("--eavesdrop", action="store_true")
    ps.add_argument("--emit-expectations", default=None, dest="emit_expectations")
    ps.add_argument("--shots", type=int, default=None,
                    help="binomial sampling noise on emitted expectations")
    ps.set_defaults(func=cmd_qss)
    pv = qss_sub.add_parser("verify")
    _add_common(pv, "tol")
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
    except np.linalg.LinAlgError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
