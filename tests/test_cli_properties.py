"""Property test: every small command line ends with a documented exit code.

Generated invocations of every subcommand, good and bad, must exit with
0 (success), 2 (usage), 3 (resource cap) or 4 (non-convergence) and
never raise out of `main` or print a traceback.  Sizes stay tiny (n <= 4,
rounds <= 50, restarts <= 2) so that no example allocates much or runs
long.  Every float flag also draws nan,
+-inf and 1e308.  Paths are templates: {dir} is a temporary directory
holding the files below, {missing} a directory that does not exist.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multisep.cli import main

FAMILIES = ["ghz-iso", "dicke-iso", "ghz-w", "gmd"]
CRITERIA = ["ppt", "bipartite", "gme", "ksep", "dicke", "q0", "qm",
            "double-class", "ntuple-class", "fw-ghz3", "fw-w3"]
# density-matrix and expectation files: valid, invalid JSON, wrong layout,
# not text, a directory, missing
STATE_FILES = ["{dir}/ghz.json", "{dir}/bad.json", "{dir}/list.json", "{dir}/number.json",
               "{dir}/binary.json", "{dir}", "{dir}/missing.json"]
EXPECTATION_FILES = ["{dir}/exp.json", "{dir}/bad.json", "{dir}/list.json",
                     "{dir}/binary.json", "{dir}", "{missing}/exp.json"]
OUTPUTS = [None, "{dir}/out.txt", "{missing}/out.txt", "{dir}"]

# every float flag also draws these
EXTREMES = ["nan", "inf", "-inf", "1e308"]


def floats(*values):
    return st.sampled_from([*values, *EXTREMES])


small_int = st.integers(min_value=-1, max_value=4)
weight = floats("0", "0.25", "0.5", "1", "-0.5", "1.5")
probe = st.sampled_from(["000,111", "00,11", "0000,1111", "000,222", "000", "0a0,111"])


def flag(name, values):
    """[] or [name=value] for a drawn value (one word, so that argparse
    takes a value such as -inf as the flag's)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


def joined(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


family_args = joined(
    flag("--family", st.sampled_from(FAMILIES)),
    flag("--n", small_int), flag("--d", st.integers(min_value=1, max_value=3)),
    flag("--m", small_int), flag("--alpha", weight), flag("--beta", weight),
    flag("--p", weight),
)
crit_args = joined(
    st.sampled_from(CRITERIA).map(lambda c: ["--crit", c]),
    flag("--probe", probe), flag("--block", st.sampled_from(["0", "0,1", "5", "1,1"])),
    flag("--k", small_int), flag("--f", small_int),
    flag("--tol", floats("0", "1e-10", "-1")),
)
out_arg = st.sampled_from(OUTPUTS).map(lambda o: [] if o is None else ["--out", o])

state_cmd = joined(
    st.just(["state"]),
    st.one_of(family_args, joined(
        flag("--kind", st.sampled_from(["ghz", "w", "dicke", "smolin", "bell",
                                        "basis-product"])),
        flag("--n", small_int), flag("--d", st.integers(min_value=1, max_value=3)),
        flag("--m", small_int), flag("--labels", st.sampled_from(["010", "2", "", "01a"])),
        flag("--label", st.sampled_from(["phi+", "psi-", "xyz"])),
        flag("--noise", weight))),
    st.sampled_from(OUTPUTS[1:]).map(lambda o: ["--out", o]),
)
crit_cmd = joined(
    st.just(["crit"]), crit_args,
    st.one_of(family_args, st.sampled_from(STATE_FILES).map(lambda f: ["--in", f])),
    out_arg,
)
measure_cmd = joined(
    st.just(["measure"]),
    st.sampled_from(["cgme", "cgme-bound", "schmidt-rank"]).map(lambda m: ["--measure", m]),
    st.sampled_from(STATE_FILES).map(lambda f: ["--in", f]),
    flag("--probe", probe), flag("--cut", st.sampled_from(["0", "0,1", "7", "x"])),
    out_arg,
)
scan_cmd = joined(
    st.just(["scan"]), crit_args, family_args,
    flag("--var", st.sampled_from(["alpha", "beta", "p", "n", "foo"])),
    st.tuples(weight, weight, floats("0.25", "0.5", "1", "0", "-1")).map(
        lambda t: [f"--start={t[0]}", f"--stop={t[1]}", f"--step={t[2]}"]),
    out_arg,
)
threshold_cmd = joined(
    st.just(["threshold"]), crit_args, family_args,
    flag("--var", st.sampled_from(["alpha", "beta", "p", "foo"])),
    st.tuples(weight, weight).map(lambda t: [f"--lo={t[0]}", f"--hi={t[1]}"]),
    flag("--threshold-tol", floats("0", "1e-300", "1e-3", "-1")),
    out_arg,
)
manybody_cmd = joined(
    st.just(["manybody"]),
    flag("--n", small_int), flag("--lattice", st.sampled_from(["chain", "ring"])),
    flag("--gamma", floats("0", "0.3", "1", "-0.5", "2")),
    st.one_of(
        st.sampled_from([[], ["--h-start", "0", "--h-stop", "1", "--h-step", "0.5"],
                         ["--h-step", "0"], ["--h-start", "1", "--h-stop", "0"]]),
        joined(flag("--h-start", floats("0", "1")), flag("--h-stop", floats("0", "1")),
               flag("--h-step", floats("0.5", "0")))),
    flag("--kT", floats("0.5", "0", "-1", "1e-300")),
    flag("--ks", st.sampled_from(["2", "1,2", "0", "9", "a", ""])),
    flag("--restarts", st.integers(min_value=-1, max_value=2)),
    out_arg,
)
qss_cmd = st.one_of(
    joined(st.just(["qss", "simulate"]),
           flag("--rounds", st.integers(min_value=-5, max_value=50)),
           st.sampled_from([[], ["--eavesdrop"]]),
           flag("--emit-expectations", st.sampled_from(["{dir}/emitted.json",
                                                        "{missing}/exp.json", "{dir}"])),
           flag("--shots", st.integers(min_value=-1, max_value=20)),
           out_arg),
    joined(st.just(["qss", "verify"]),
           st.sampled_from(EXPECTATION_FILES).map(lambda f: ["--expectations", f]),
           out_arg),
)
unstable_cmd = joined(
    st.just(["unstable"]),
    flag("--gamma1", floats("0", "0.5", "2000", "1e6", "-1")),
    flag("--gamma2", floats("0", "3", "1500")),
    flag("--alpha1", floats("0", "1.2", "-3")),
    flag("--t-start", floats("0", "1", "-1")),
    flag("--t-stop", floats("0", "1", "2")),
    flag("--t-step", floats("0.5", "1", "0")),
    out_arg,
)
command = st.one_of(state_cmd, crit_cmd, measure_cmd, scan_cmd, threshold_cmd,
                    manybody_cmd, qss_cmd, unstable_cmd)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Scratch directory with the files the templates name."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["state", "--kind", "ghz", "--n", "3", "--out", str(root / "ghz.json")]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["qss", "simulate", "--rounds", "10",
                     "--emit-expectations", str(root / "exp.json")]) == 0
    (root / "bad.json").write_text("{not json")
    (root / "list.json").write_text(json.dumps([1, 2]))
    (root / "number.json").write_text("3")
    (root / "binary.json").write_bytes(b"\xff\xfe\x00")
    return {"dir": str(root), "missing": str(root / "missing")}


def run(argv, files):
    argv = [a.format(**files) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


# derandomized so that every run draws the same examples
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command)
@example(argv=["crit", "--crit", "gme", "--probe", "000,111", "--in", "{dir}/missing.json"])
@example(argv=["crit", "--crit", "gme", "--probe", "000,111", "--in", "{dir}/bad.json"])
@example(argv=["measure", "--measure", "cgme", "--in", "{dir}/missing.json"])
@example(argv=["measure", "--measure", "cgme", "--in", "{dir}/bad.json"])
@example(argv=["crit", "--crit", "gme", "--probe", "000,111", "--in", "{dir}/ghz.json",
               "--out", "{missing}/x"])
@example(argv=["state", "--kind", "ghz", "--out", "{missing}/x"])
@example(argv=["qss", "simulate", "--rounds", "5",
               "--emit-expectations", "{missing}/x.json"])
@example(argv=["threshold", "--family", "ghz-iso", "--crit", "gme", "--probe", "000,111",
               "--lo", "0", "--hi", "1", "--threshold-tol", "0"])
@example(argv=["threshold", "--family", "ghz-iso", "--crit", "gme", "--probe", "000,111",
               "--lo", "0", "--hi", "1", "--threshold-tol", "1e-300"])
@example(argv=["manybody", "--n", "4", "--restarts", "0"])
@example(argv=["unstable", "--gamma1", "2000", "--t-start", "1", "--t-stop", "1"])
@example(argv=["unstable", "--gamma1", "nan"])
@example(argv=["manybody", "--n", "3", "--kT", "nan", "--restarts", "1"])
@example(argv=["crit", "--crit", "gme", "--probe", "000,111", "--family", "ghz-iso",
               "--alpha", "0.5", "--tol", "nan"])
@example(argv=["unstable", "--t-stop", "inf", "--t-step", "1e308"])
def test_every_invocation_exits_with_a_documented_code(files, argv):
    code, err = run(argv, files)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
