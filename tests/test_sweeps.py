"""scan and threshold build the family once and reuse the criteria's
query plans; their output must not change.

Each point of a sweep reweights the provider of the point before
(MixtureProvider.reweighted), which shares the support tables and a
store of query plans.  The reference here is the plain evaluation: a
fresh family_state provider per point, which has no plan store.
"""

import gc
import json
import weakref

import pytest

from multisep import ResourceError, cli, criteria
from multisep.cli import main
from multisep.states import MixtureProvider, family_state

FAMILIES = {
    "ghz-iso": ["--family", "ghz-iso", "--n", "3"],
    "ghz-iso-d3": ["--family", "ghz-iso", "--n", "3", "--d", "3"],
    "dicke-iso": ["--family", "dicke-iso", "--n", "3", "--m", "1"],
    # m > n/2: the dicke and qm sums run on the flipped state
    "dicke-iso-m2": ["--family", "dicke-iso", "--n", "3", "--m", "2"],
    "dicke-iso-d3": ["--family", "dicke-iso", "--n", "4", "--d", "3", "--m", "2"],
    "ghz-w": ["--family", "ghz-w", "--n", "3", "--beta", "0.2"],
    "gmd": ["--family", "gmd", "--n", "3", "--beta", "0.2"],
    "gmd-d3": ["--family", "gmd", "--n", "3", "--d", "3", "--beta", "0.2"],
}

QUBIT_CRITERIA = {
    "ppt": ["--crit", "ppt", "--block", "0,2"],
    "gme": ["--crit", "gme", "--probe", "000,111"],
    "ksep": ["--crit", "ksep", "--k", "3", "--probe", "010,101"],
    "dicke": ["--crit", "dicke"],
    "q0": ["--crit", "q0"],
    "qm": ["--crit", "qm"],
    "double-class": ["--crit", "double-class"],
    "ntuple-class": ["--crit", "ntuple-class"],
    "fw-ghz3": ["--crit", "fw-ghz3"],
    "fw-w3": ["--crit", "fw-w3"],
}

QUDIT_CRITERIA = {
    "ppt": ["--crit", "ppt", "--block", "1"],
    "gme": ["--crit", "gme", "--probe", "012,120"],
    "ksep": ["--crit", "ksep", "--k", "3", "--probe", "000,222"],
    "q0": ["--crit", "q0", "--f", "3"],
    "qm": ["--crit", "qm", "--f", "3"],
}


def _cases():
    for family, flags in FAMILIES.items():
        crits = QUDIT_CRITERIA if "--d" in flags else QUBIT_CRITERIA
        for crit, crit_flags in crits.items():
            if crit == "ksep" and family == "dicke-iso-d3":
                crit_flags = ["--crit", "ksep", "--k", "3", "--probe", "0000,2121"]
            if crit == "gme" and family == "dicke-iso-d3":
                crit_flags = ["--crit", "gme", "--probe", "0120,1201"]
            yield pytest.param(flags + crit_flags, id=f"{family}-{crit}")
    # bipartite needs n = 2
    for family in ("ghz-iso", "dicke-iso"):
        yield pytest.param(["--family", family, "--n", "2", "--crit", "bipartite",
                            "--probe", "01,10"], id=f"{family}-bipartite")


def _per_point_builder(args):
    """The sweep without reweighting or plans: a fresh provider per point."""
    var = args.var or cli._FAMILY_VARS[args.family][0]

    def build(value):
        weights = {"alpha": args.alpha, "beta": args.beta, "p": args.p, var: value}
        return family_state(args.family, representation="provider", n=args.n, d=args.d,
                            m=args.m, **weights)

    return build, var


def _outcome(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _same_as_per_point(capsys, monkeypatch, argv):
    swept = _outcome(capsys, argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_family_builder", _per_point_builder)
        fresh = _outcome(capsys, argv)
    assert swept == fresh
    return swept


@pytest.mark.parametrize("argv", _cases())
def test_scan_from_weight_zero_matches_per_point(capsys, monkeypatch, argv):
    # the first point has no live pure term, the second has: the tables change
    code, out, _ = _same_as_per_point(
        capsys, monkeypatch, ["scan", *argv, "--start", "0", "--stop", "0.8", "--step", "0.1"])
    assert code == 0 and len(out.splitlines()) == 10


@pytest.mark.parametrize("argv", _cases())
def test_threshold_matches_per_point(capsys, monkeypatch, argv):
    # where nothing changes in the bracket both runs exit 2 with the same message
    _same_as_per_point(capsys, monkeypatch, ["threshold", *argv, "--lo", "0", "--hi", "0.8"])


@pytest.mark.parametrize("family", ["ghz-w", "gmd"])
@pytest.mark.parametrize("crit", ["gme", "dicke", "q0", "qm", "ppt", "fw-w3"])
def test_beta_sweep_at_fixed_alpha(capsys, monkeypatch, family, crit):
    base = ["--family", family, "--n", "3", "--alpha", "0.3", "--var", "beta",
            *QUBIT_CRITERIA[crit]]
    code, out, _ = _same_as_per_point(
        capsys, monkeypatch, ["scan", *base, "--start", "0", "--stop", "0.7", "--step", "0.1"])
    assert code == 0 and out.splitlines()[0] == "beta,value,violated"
    _same_as_per_point(capsys, monkeypatch, ["threshold", *base, "--lo", "0", "--hi", "0.7"])


def test_plans_over_the_budget_stream(capsys, monkeypatch):
    argv = ["scan", "--family", "dicke-iso", "--n", "5", "--d", "3", "--m", "2", "--crit",
            "qm", "--f", "3", "--start", "0.1", "--stop", "0.9", "--step", "0.2"]
    planned = _outcome(capsys, argv)
    monkeypatch.setattr(criteria, "_PLAN_BYTES", 0)
    assert _outcome(capsys, argv) == planned
    prov = family_state("dicke-iso", n=5, d=3, m=2, p=0.5, representation="provider")
    prov = prov.reweighted([0.5], 0.5)
    criteria.qm_value(prov, 2, f=3)
    assert prov.plans == {("dicke", 2, 3): None}


def test_one_plan_per_query_replayed_at_every_point(monkeypatch):
    built = []
    batches = criteria._probe_batches

    def counting(*args):
        built.append(args[1:])
        return batches(*args)

    monkeypatch.setattr(criteria, "_probe_batches", counting)
    probe = ((0,) * 4, (1,) * 4)

    def values(prov):
        return [criteria.q0_value(prov, f=2).value, criteria.gme_value(prov, probe).value,
                criteria.ksep_value(prov, 3, probe).value,
                criteria.ksep_value(prov, 4, probe).value]

    prov = family_state("ghz-iso", n=4, d=3, alpha=0.0, representation="provider")
    swept = []
    for alpha in (0.0, 0.25, 0.5, 1.0):
        prov = prov.reweighted([alpha], 1.0 - alpha)
        swept.append(values(prov))
    # q0 queries one probe set per level; gme, ksep k=3 and k=4 one each
    assert len(built) == 3 + 3
    for plan in prov.plans.values():
        flat_a, flat_b, _ = plan
        assert not flat_a.flags.writeable and not flat_b.flags.writeable
    assert swept == [values(family_state("ghz-iso", n=4, d=3, alpha=alpha,
                                         representation="provider"))
                     for alpha in (0.0, 0.25, 0.5, 1.0)]
    # the partition cap is part of a plan's key: a recorded plan does not lift it
    with pytest.raises(ResourceError):
        criteria.gme_value(prov, probe, cap=6)


CRIT_A = ["crit", "--crit", "gme", "--probe", "0000,1111", "--family", "ghz-iso", "--n", "4",
          "--alpha", "0.3"]
CRIT_B = ["crit", "--crit", "qm", "--m", "2", "--f", "3", "--family", "dicke-iso", "--n", "4",
          "--d", "3", "--p", "0.6"]


def test_repeated_crit_same_bytes_in_either_order(capsys):
    first = [_outcome(capsys, argv) for argv in (CRIT_A, CRIT_B, CRIT_A)]
    second = [_outcome(capsys, argv) for argv in (CRIT_B, CRIT_A, CRIT_B)]
    assert first[0] == first[2] == second[1]
    assert second[0] == second[2] == first[1]
    assert all(code == 0 for code, _, _ in first + second)


def test_no_plan_outlives_a_main_call(capsys, monkeypatch):
    swept = []
    reweighted = MixtureProvider.reweighted

    def tracked(self, *args):
        out = reweighted(self, *args)
        swept.append(weakref.ref(out))
        return out

    stores = []
    planned = criteria._planned

    def spy(prov, key, batches):
        stores.append(prov.plans)
        return planned(prov, key, batches)

    monkeypatch.setattr(MixtureProvider, "reweighted", tracked)
    monkeypatch.setattr(criteria, "_planned", spy)
    assert main(["threshold", "--family", "ghz-iso", "--n", "4", "--crit", "gme",
                 "--probe", "0000,1111", "--lo", "0", "--hi", "1"]) == 0
    assert swept and all(store is not None for store in stores)
    stores.clear()
    gc.collect()
    assert all(ref() is None for ref in swept)
    # crit evaluates a provider that has no plan store: it streams
    assert main(CRIT_A) == 0 and main(CRIT_B) == 0
    assert stores and all(store is None for store in stores)
    capsys.readouterr()


class TestSweptVariable:
    @pytest.mark.parametrize("family, flags, var", [
        ("ghz-iso", ["--alpha", "0.5"], "n"),
        ("ghz-iso", ["--alpha", "0.5"], "m"),
        ("ghz-iso", ["--alpha", "0.5"], "beta"),
        ("dicke-iso", ["--p", "0.5"], "alpha"),
        ("ghz-w", ["--alpha", "0.5"], "p"),
        ("gmd", ["--alpha", "0.5"], "d"),
    ])
    def test_only_mixing_weights(self, capsys, family, flags, var):
        base = ["--family", family, "--n", "3", *flags, "--crit", "gme", "--probe", "000,111",
                "--var", var]
        for argv in (["scan", *base, "--start", "3", "--stop", "4", "--step", "1"],
                     ["threshold", *base, "--lo", "0", "--hi", "1"]):
            code, out, err = _outcome(capsys, argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and f"--var {var!r} is not a mixing weight" in err

    def test_beta_is_the_swept_column(self, capsys):
        code, out, _ = _outcome(capsys, [
            "scan", "--family", "ghz-w", "--n", "3", "--alpha", "0.2", "--var", "beta",
            "--crit", "gme", "--probe", "000,111", "--start", "0", "--stop", "0.5",
            "--step", "0.25"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["beta", "value", "violated"]
        values = [float(row[1]) for row in rows[1:]]
        assert len(set(values)) == 3

    def test_threshold_names_the_var(self, capsys):
        code, out, _ = _outcome(capsys, [
            "threshold", "--family", "gmd", "--n", "3", "--alpha", "0.1", "--var", "beta",
            "--crit", "fw-w3", "--lo", "0", "--hi", "0.9"])
        assert code == 0
        assert json.loads(out)["var"] == "beta"
