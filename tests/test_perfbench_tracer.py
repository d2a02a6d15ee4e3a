"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py patches functions by name on the modules that look
them up; a refactor that deletes or moves one of those names breaks
`perfbench/run.py --trace 1`.  This installs the tracer, runs one small
`manybody` and one `crit` command through it, calls the density-matrix
witness functions that the `manybody` row no longer calls, and
uninstalls it, which raises if a wrapper stays installed.
"""

import importlib.util
from pathlib import Path

from multisep import cli, manybody

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # under a private name, so no `import tracer` elsewhere can pick it up
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_manybody_and_a_crit_run():
    perf_tracer = _load_tracer()
    tracer = perf_tracer.Tracer()
    tracer.install()
    try:
        # through the module attribute, which the tracer wraps
        assert cli.main(["manybody", "--n", "3", "--ks", "2", "--kT", "0.5",
                         "--restarts", "1"]) == 0
        assert cli.main(["crit", "--crit", "gme", "--probe", "000,111", "--family",
                         "ghz-iso", "--alpha", "0.5"]) == 0
        # the row reads the sector spectrum; these build a density matrix
        ham = manybody.SpinHamiltonian(manybody.Lattice.ring(3),
                                       manybody.HeisenbergParams.from_gamma(0.0))
        report = manybody.entanglement_gaps(ham, ks=[2], restarts=1)
        rho = manybody.thermal_state(ham, 0.5)
        manybody.gap_witness_detects(rho, report, 2)
    finally:
        tracer.uninstall()
    names = {span[perf_tracer.NAME] for span in tracer.spans}
    assert {"cli.main", "manybody.thermal_state", "manybody.gap_witness_detects",
            "manybody.min_ksep_energy", "criteria.gme_value"} <= names
    metrics = tracer.metrics(1, [1.0], [1.0])
    assert metrics["manybody.thermal_state.self_s"]["value"] > 0
    assert metrics["manybody.gap_witness_detects.self_s"]["value"] > 0
