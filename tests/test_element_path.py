"""One matrix-element path.

The criteria read density-matrix elements only through the batch API,
ElementProvider.elements / .diagonal on flat indices, and each built-in
provider's scalar element(bra, ket) is that batch answer at one pair.
These tests hold that: no criterion reaches a scalar element, the scalar
form equals the batch form exactly, and the criteria that were moved off
the scalar form keep their values.
"""

from itertools import product
from math import cos, sin

import numpy as np
import pytest

from multisep import (
    apply_local_unitaries,
    bell_state,
    best_computational_probe,
    double_class_value,
    family_state,
    fidelity_witness_value,
    mix_white_noise,
    mlinear_value,
    ntuple_class_value,
    rank_m_determinant,
    vec_to_dm,
)
from multisep import cli
from multisep.states import DenseProvider, FlippedProvider, MixtureProvider, as_provider
from multisep.tensor import SystemShape

PROVIDER_CLASSES = (MixtureProvider, DenseProvider, FlippedProvider)


def _rotation(d, theta, phi):
    """Unitary on one d-level site mixing levels 0 and 1."""
    u = np.eye(d, dtype=complex)
    u[:2, :2] = [[cos(theta), -np.exp(-1j * phi) * sin(theta)],
                 [np.exp(1j * phi) * sin(theta), cos(theta)]]
    return u


def _rotated(rho):
    """rho under fixed local unitaries, so elements carry phases."""
    d = rho.shape.dims
    return apply_local_unitaries(
        rho, [_rotation(di, 0.3 + 0.2 * i, 0.7 - 0.4 * i) for i, di in enumerate(d)])


_FAMILIES = {
    "ghz-w-3": ("ghz-w", dict(n=3, alpha=0.3, beta=0.4)),
    "ghz-w-4": ("ghz-w", dict(n=4, alpha=0.5, beta=0.2)),
    "ghz-iso-3": ("ghz-iso", dict(n=3, alpha=0.6)),
    "dicke-iso-4": ("dicke-iso", dict(n=4, m=2, p=0.7)),
    "ghz-iso-2": ("ghz-iso", dict(n=2, alpha=0.45)),
    "gmd-2-3": ("gmd", dict(n=2, d=3, alpha=0.4, beta=0.3)),
}


def _states():
    """(label, state) pairs: each family as a provider and as a dense
    matrix, a flipped provider, and rotated dense states."""
    out = {}
    for label, (family, kwargs) in _FAMILIES.items():
        out[f"{label}/provider"] = family_state(family, representation="provider", **kwargs)
        out[f"{label}/dense"] = family_state(family, **kwargs)
    out["ghz-w-4/flipped"] = FlippedProvider(out["ghz-w-4/provider"])
    out["ghz-w-3/rotated"] = _rotated(out["ghz-w-3/dense"])
    out["gmd-2-3/rotated"] = _rotated(out["gmd-2-3/dense"])
    out["psi-/rotated"] = _rotated(mix_white_noise(vec_to_dm(bell_state("psi-")), 0.7))
    return out


def _cases():
    """(case id, value function) of every pinned criterion evaluation."""
    cases = []
    for label, state in _states().items():
        shape = state.shape
        n, d = shape.n, shape.dims[0]
        if d == 2 and n >= 3:
            cases.append((f"double_class/{label}", lambda s=state: double_class_value(s).value))
            cases.append((f"ntuple_class/{label}", lambda s=state: ntuple_class_value(s).value))
        if shape.dims == (2, 2, 2):
            for kind in ("ghz3", "w3"):
                cases.append((f"fidelity_{kind}/{label}",
                              lambda s=state, k=kind: fidelity_witness_value(s, k).value))
        if n == 2:
            top = d - 1
            for probes in ([(0, 0), (top, top)], [(0, 0), (1, 1), (0, 1)],
                           [(0, 1), (top, 0), (1, top)]):
                cases.append((f"mlinear{probes}/{label}",
                              lambda s=state, p=probes: mlinear_value(s, p).value))
            rank_rows = [[(0, 1), (1, 0)], [(0, 0), (1, 1)]]
            if d == 3:
                rank_rows += [[(0, 2), (2, 0)], [(0, 1), (1, 2), (2, 0)]]
            for rows in rank_rows:
                cases.append((f"rank_m{rows}/{label}",
                              lambda s=state, r=rows: rank_m_determinant(s, r).value))
    return cases


# Values of the parent implementation, which read every element above
# through the scalar element(); the batch reads sum in another order.
PINNED = {
    'double_class/ghz-w-3/provider': -2.1999999999999993,
    'ntuple_class/ghz-w-3/provider': -0.7875000000000001,
    'fidelity_ghz3/ghz-w-3/provider': -0.41250000000000014,
    'fidelity_w3/ghz-w-3/provider': -0.2291666666666664,
    'double_class/ghz-w-3/dense': -2.1999999999999993,
    'ntuple_class/ghz-w-3/dense': -0.7875000000000001,
    'fidelity_ghz3/ghz-w-3/dense': -0.41250000000000014,
    'fidelity_w3/ghz-w-3/dense': -0.2291666666666664,
    'double_class/ghz-w-4/provider': -3.774999999999999,
    'ntuple_class/ghz-w-4/provider': -0.2125000000000002,
    'double_class/ghz-w-4/dense': -3.774999999999999,
    'ntuple_class/ghz-w-4/dense': -0.2125000000000002,
    'double_class/ghz-iso-3/provider': -2.9999999999999996,
    'ntuple_class/ghz-iso-3/provider': -0.15000000000000036,
    'fidelity_ghz3/ghz-iso-3/provider': -0.10000000000000031,
    'fidelity_w3/ghz-iso-3/provider': -0.6166666666666666,
    'double_class/ghz-iso-3/dense': -2.9999999999999996,
    'ntuple_class/ghz-iso-3/dense': -0.15000000000000036,
    'fidelity_ghz3/ghz-iso-3/dense': -0.10000000000000031,
    'fidelity_w3/ghz-iso-3/dense': -0.6166666666666666,
    'double_class/dicke-iso-4/provider': -3.7750000000000017,
    'ntuple_class/dicke-iso-4/provider': -0.9624999999999999,
    'double_class/dicke-iso-4/dense': -3.7750000000000017,
    'ntuple_class/dicke-iso-4/dense': -0.9624999999999999,
    'mlinear[(0, 0), (1, 1)]/ghz-iso-2/provider': 0.08749999999999997,
    'mlinear[(0, 0), (1, 1), (0, 1)]/ghz-iso-2/provider': -0.05098636459878269,
    'mlinear[(0, 1), (1, 0), (1, 1)]/ghz-iso-2/provider': -0.08278596272919704,
    'rank_m[(0, 1), (1, 0)]/ghz-iso-2/provider': 0.03171874999999999,
    'rank_m[(0, 0), (1, 1)]/ghz-iso-2/provider': -0.13140625000000003,
    'mlinear[(0, 0), (1, 1)]/ghz-iso-2/dense': 0.08749999999999997,
    'mlinear[(0, 0), (1, 1), (0, 1)]/ghz-iso-2/dense': -0.05098636459878269,
    'mlinear[(0, 1), (1, 0), (1, 1)]/ghz-iso-2/dense': -0.08278596272919704,
    'rank_m[(0, 1), (1, 0)]/ghz-iso-2/dense': 0.03171874999999999,
    'rank_m[(0, 0), (1, 1)]/ghz-iso-2/dense': -0.13140625000000003,
    'mlinear[(0, 0), (2, 2)]/gmd-2-3/provider': 0.10000000000000006,
    'mlinear[(0, 0), (1, 1), (0, 1)]/gmd-2-3/provider': -0.03565686521607077,
    'mlinear[(0, 1), (2, 0), (1, 2)]/gmd-2-3/provider': -0.019778870132130998,
    'rank_m[(0, 1), (1, 0)]/gmd-2-3/provider': 0.0060416666666666795,
    'rank_m[(0, 0), (1, 1)]/gmd-2-3/provider': -0.022152777777777802,
    'rank_m[(0, 2), (2, 0)]/gmd-2-3/provider': 0.016666666666666687,
    'rank_m[(0, 1), (1, 2), (2, 0)]/gmd-2-3/provider': -0.000391203703703704,
    'mlinear[(0, 0), (2, 2)]/gmd-2-3/dense': 0.10000000000000006,
    'mlinear[(0, 0), (1, 1), (0, 1)]/gmd-2-3/dense': -0.03565686521607077,
    'mlinear[(0, 1), (2, 0), (1, 2)]/gmd-2-3/dense': -0.019778870132130998,
    'rank_m[(0, 1), (1, 0)]/gmd-2-3/dense': 0.0060416666666666795,
    'rank_m[(0, 0), (1, 1)]/gmd-2-3/dense': -0.022152777777777802,
    'rank_m[(0, 2), (2, 0)]/gmd-2-3/dense': 0.016666666666666687,
    'rank_m[(0, 1), (1, 2), (2, 0)]/gmd-2-3/dense': -0.000391203703703704,
    'double_class/ghz-w-4/flipped': -4.975,
    'ntuple_class/ghz-w-4/flipped': -0.2125000000000002,
    'double_class/ghz-w-3/rotated': -2.3964583979447585,
    'ntuple_class/ghz-w-3/rotated': -0.9222698174516837,
    'fidelity_ghz3/ghz-w-3/rotated': -0.5564589427946067,
    'fidelity_w3/ghz-w-3/rotated': -0.4751090508106467,
    'mlinear[(0, 0), (2, 2)]/gmd-2-3/rotated': 0.07811209178359166,
    'mlinear[(0, 0), (1, 1), (0, 1)]/gmd-2-3/rotated': -0.02743700620345262,
    'mlinear[(0, 1), (2, 0), (1, 2)]/gmd-2-3/rotated': -0.011500120352273609,
    'rank_m[(0, 1), (1, 0)]/gmd-2-3/rotated': -0.0008361306531539195,
    'rank_m[(0, 0), (1, 1)]/gmd-2-3/rotated': -0.03192979912235018,
    'rank_m[(0, 2), (2, 0)]/gmd-2-3/rotated': 0.013117644162381197,
    'rank_m[(0, 1), (1, 2), (2, 0)]/gmd-2-3/rotated': 8.57483240186345e-07,
    'mlinear[(0, 0), (1, 1)]/psi-/rotated': -0.38424413929682233,
    'mlinear[(0, 0), (1, 1), (0, 1)]/psi-/rotated': -0.2456802112261653,
    'mlinear[(0, 1), (1, 0), (1, 1)]/psi-/rotated': -0.07790674354670418,
    'rank_m[(0, 1), (1, 0)]/psi-/rotated': -0.16330375920114948,
    'rank_m[(0, 0), (1, 1)]/psi-/rotated': 0.0995537592011495,
}


@pytest.mark.parametrize("case, value", _cases(), ids=[c for c, _ in _cases()])
def test_converted_criteria_keep_their_values(case, value):
    assert value() == pytest.approx(PINNED[case], rel=0, abs=1e-12)


# best_computational_probe of the parent: the first strict maximum of
# |rho_ab| in scan order, so ties break the same way.
PINNED_PROBES = {
    'ghz-w-3/provider': [(0, 0, 0), (1, 1, 1)],
    'ghz-w-3/dense': [(0, 0, 0), (1, 1, 1)],
    'ghz-w-4/provider': [(0, 0, 0, 0), (1, 1, 1, 1)],
    'ghz-w-4/dense': [(0, 0, 0, 0), (1, 1, 1, 1)],
    'ghz-iso-3/provider': [(0, 0, 0), (1, 1, 1)],
    'ghz-iso-3/dense': [(0, 0, 0), (1, 1, 1)],
    'dicke-iso-4/provider': [(0, 0, 1, 1), (1, 1, 0, 0)],
    'dicke-iso-4/dense': [(0, 0, 1, 1), (1, 1, 0, 0)],
    'ghz-iso-2/provider': [(0, 0), (1, 1)],
    'ghz-iso-2/dense': [(0, 0), (1, 1)],
    'gmd-2-3/provider': [(0, 0), (1, 1)],
    'gmd-2-3/dense': [(0, 0), (1, 1)],
    'ghz-w-4/flipped': [(0, 0, 0, 0), (1, 1, 1, 1)],
    'ghz-w-3/rotated': [(1, 0, 0), (0, 1, 1)],
    'gmd-2-3/rotated': [(0, 0), (2, 2)],
    'psi-/rotated': [(0, 1), (1, 0)],
}


@pytest.mark.parametrize("label", sorted(PINNED_PROBES))
def test_best_probe_unchanged(label):
    probe = best_computational_probe(_states()[label])
    assert [probe.a, probe.b] == PINNED_PROBES[label]


def _crit_choices():
    """Every --crit choice of the command line."""
    crit = cli.build_parser()._subparsers._group_actions[0].choices["crit"]
    return next(a for a in crit._actions if a.dest == "crit").choices


def _crit_argv(crit, source):
    """`crit` argv of a small state that `crit` accepts; `source` maps
    (family name, family flags) to the flags that load the state."""
    if crit == "bipartite":
        return ["crit", "--crit", crit, "--probe", "00,11",
                *source("ghz-iso", ["--n", "2", "--alpha", "0.6"])]
    flags = {"gme": ["--probe", "000,111"], "ksep": ["--probe", "000,111", "--k", "3"],
             "dicke": ["--m", "2"], "qm": ["--m", "2"]}.get(crit, [])
    return ["crit", "--crit", crit, *flags,
            *source("ghz-w", ["--n", "3", "--alpha", "0.5", "--beta", "0.3"])]


@pytest.fixture
def no_scalar_reads(monkeypatch):
    """Make every built-in provider's scalar element() raise."""
    def refuse(self, bra, ket):
        raise AssertionError(f"scalar element() read on {type(self).__name__}")

    for cls in PROVIDER_CLASSES:
        monkeypatch.setattr(cls, "element", refuse)


@pytest.mark.usefixtures("no_scalar_reads")
@pytest.mark.parametrize("dense", [False, True], ids=["provider", "dense"])
def test_no_criterion_reads_a_scalar_element(tmp_path, capsys, dense):
    def source(family, flags):
        if not dense:
            return ["--family", family, *flags]
        path = tmp_path / f"{family}.json"
        assert cli.main(["state", "--family", family, *flags, "--out", str(path)]) == 0
        return ["--in", str(path)]

    choices = _crit_choices()
    assert len(choices) == 11
    for crit in choices:
        assert cli.main(_crit_argv(crit, source)) == 0, crit
    assert capsys.readouterr().out.count('"value"') == len(choices)

    states = _states()
    kind = "dense" if dense else "provider"
    pair = states[f"gmd-2-3/{kind}"]
    mlinear_value(pair, [(0, 0), (1, 1), (2, 2)])
    rank_m_determinant(pair, [(0, 1), (1, 2), (2, 0)])
    for state in (pair, states[f"ghz-w-3/{kind}"], FlippedProvider(as_provider(pair))):
        best_computational_probe(state)


def _providers():
    """(label, provider) of every provider type on small shapes, mixed
    local dimensions included."""
    mixed = SystemShape((2, 3))
    amps = {(0, 0): 0.6, (1, 2): 0.8j, (0, 1): 0.0}
    mixture = MixtureProvider(mixed, [(0.5, amps), (0.25, {(1, 1): 1.0})], noise_weight=0.25)
    rotated = _rotated(mixture.to_dense())
    states = _states()
    return {
        "mixture(2, 3)": mixture,
        "mixture-gmd(3, 3)": states["gmd-2-3/provider"],
        "mixture-ghz-w(2, 2, 2)": states["ghz-w-3/provider"],
        "dense(2, 3)": as_provider(rotated),
        "dense-rotated(2, 2, 2)": as_provider(states["ghz-w-3/rotated"]),
        "flipped-mixture(2, 3)": FlippedProvider(mixture),
        "flipped-dense(2, 3)": FlippedProvider(as_provider(rotated)),
        "flipped-mixture(2, 2, 2)": FlippedProvider(states["ghz-w-3/provider"]),
    }


@pytest.mark.parametrize("label", sorted(_providers()))
def test_scalar_element_is_the_batch_answer(label):
    prov = _providers()[label]
    shape = prov.shape
    for bra, ket in product(shape.all_indices(), repeat=2):
        got = prov.element(bra, ket)
        assert type(got) is complex
        assert got == complex(prov.elements(shape.encode(bra), shape.encode(ket)))


@pytest.mark.parametrize("label", [l for l in sorted(_providers()) if l.startswith("flipped")])
def test_flipped_element_reads_the_inner_provider_at_flipped_labels(label):
    prov = _providers()[label]
    dims = prov.shape.dims
    for bra, ket in product(prov.shape.all_indices(), repeat=2):
        flip = [tuple(d - 1 - x for x, d in zip(mi, dims)) for mi in (bra, ket)]
        assert prov.element(bra, ket) == prov._inner.element(*flip)


@pytest.mark.parametrize("label", sorted(_providers()))
def test_batches_broadcast(label):
    # a scalar bra against a row of kets, and a column against a row
    prov = _providers()[label]
    shape = prov.shape
    flat = np.arange(shape.total)
    want = np.array([[prov.element(shape.decode(x), shape.decode(y)) for y in flat]
                     for x in flat])
    assert np.array_equal(prov.elements(1, flat), want[1])
    assert np.array_equal(prov.elements(flat[:, None], flat), want)
