"""Near-miss fuzzing of ``generate`` and ``probe`` through click's CliRunner.

Each example draws a family (or a probe recipe) and option text from near
misses of valid input: 0, -1, lengths of the form 4n+1, odd bases, ``nan``,
``inf``, ``1_0``, ``+7``, empty text, bad factor tokens and ``3=1/0``.  Every
draw is cheap to build.  Every run must end with an exit code of the CLI's
taxonomy, print no traceback and raise no ``RuntimeWarning``, and leave
``--out`` empty unless it succeeded.  An option that the run does not read,
per the tables below, must exit 1.
"""

import warnings

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from huffkit.cli import main

INTS = ["0", "-1", "1_0", "+7", "nan", "inf", "", "x", "2.5"]

# option -> (admissible values, near misses); the first admissible value is
# the one a foreign option is given (never a HuffmanSpec default)
GENERATE = {
    "-N": (["15", "7", "31"], ["5", "9", "13", "11", *INTS]),
    "--b": (["4", "2"], ["3", "1", *INTS]),
    "--n": (["1", "2"], INTS),
    "--variant": (["odd", "even"], ["", "Even", "nan"]),
    "--key": (["H9", "H4", "H8"], ["", "help", "h9", "nan"]),
    "--alphabet": (["0,1,3,6,16,44"], ["", "0,0,0,0,0,0", "1,x", "0,1,3", "nan", "0,1,3,6,16,45", "+7,1_0"]),
    "--e": (["3"], ["4", *INTS]),
    "--f": (["6", "4"], ["5", *INTS]),
    "--g": (["19"], INTS),
    "--h": (["33"], INTS),
    "--factor": (["catalog:H9", "fibonacci_binet:15:2", "h5_family:1"],
                 ["fibonacci_binet:9", "fibonacci_binet:13:2", "fibonacci_binet:15:3", "catalog", "catalog:nope",
                  "foo:1", "", ",", "3=1/0", "h5_family:0", "fibonacci_binet:nan:2"]),
}

# family -> the options it reads; diamond7 reads --e/--f/--g/--h only without --alphabet
READS = {
    "fibonacci": {"-N", "--b"},
    "h5": {"--n", "--variant"},
    "catalog": {"--key"},
    "even": {"--key"},
    "diamond5": {"--alphabet"},
    "diamond7": {"--alphabet", "--e", "--f", "--g", "--h"},
    "outer": {"--factor"},
}


def _invoke(tmp_path_factory, argv):
    """Run ``argv`` with ``{in}`` naming a fresh directory of spec files; check the exit, return the result."""
    root = tmp_path_factory.mktemp("fuzz")
    argv = [arg.replace("{in}", str(root)) for arg in argv]
    (root / "spec.json").write_text('{"coefficients": {"3": 0.25}, "samples": [9]}')
    (root / "step.json").write_text('{"coefficients": {"3": 0.25}, "samples": [9], "step": 0.5}')
    (root / "cut.json").write_text('{"coefficients": {"3": 0.2')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, [*argv, "--out", str(root / "out")], catch_exceptions=False)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert result.exit_code in (0, 1, 2, 3, 4), (argv, result.output)
    assert "Traceback" not in result.output and "RuntimeWarning" not in result.output, (argv, result.output)
    left = sorted(p.name for p in (root / "out").iterdir()) if (root / "out").is_dir() else []
    assert result.exit_code == 0 or not left, (argv, result.output, left)
    return result


@settings(max_examples=300)
@given(data=st.data())
def test_generate_near_misses_end_in_a_clean_exit(tmp_path_factory, data):
    family = data.draw(st.sampled_from(sorted(READS)), label="family")
    options = data.draw(st.lists(st.sampled_from(sorted(READS[family])), unique=True), label="options")
    values = {opt: data.draw(st.sampled_from(GENERATE[opt][0] + GENERATE[opt][1]), label=opt) for opt in options}
    reads = READS[family]
    if "--alphabet" in values:  # it makes diamond7's letters foreign
        reads = reads - {"--e", "--f", "--g", "--h"}
        values = {opt: value for opt, value in values.items() if opt in reads}
    foreign = data.draw(st.none() | st.sampled_from(sorted(set(GENERATE) - reads)), label="foreign")
    argv = ["generate", "--family", family, *(word for item in values.items() for word in item)]
    if foreign is not None:
        argv += [foreign, GENERATE[foreign][0][0]]
    result = _invoke(tmp_path_factory, argv)
    if foreign is not None:
        assert result.exit_code != 0, (argv, result.output)
        if all(value in GENERATE[opt][0] for opt, value in values.items()):
            assert result.exit_code == 1, (argv, result.output)
            assert "does not read" in result.output or f"{foreign} is read by" in result.output, result.output


PROBE = {
    "--coeff": ["3=1/3", "3=1/0", "2=1", "3=nan", "3=inf", "x=1", "3=", "=1", "", "1,2=0.5", "3,0=0.25",
                "0,3=1_0", "3=+7", "-1=1", "3=1e308"],
    "--samples": ["9", "0", "-1", "2", "3", "4", "9,9", "8,5", "9,9,9", "", "nan", "1_0", "+7", "2049"],
    "--bandwidth": ["1", "0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "+7", "1_0", ""],
}


@settings(max_examples=300)
@given(data=st.data())
def test_probe_near_misses_end_in_a_clean_exit(tmp_path_factory, data):
    spec = data.draw(st.sampled_from([None, "spec.json", "step.json", "cut.json", "missing.json"]), label="spec")
    options = data.draw(st.lists(st.sampled_from(sorted(PROBE)), unique=True), label="options")
    argv = ["probe"] if spec is None else ["probe", "--spec", "{in}/" + spec]
    for opt in options:  # --coeff is repeatable
        values = data.draw(st.lists(st.sampled_from(PROBE[opt]), min_size=1, max_size=2 if opt == "--coeff" else 1))
        argv += [word for value in values for word in (opt, value)]
    result = _invoke(tmp_path_factory, argv)
    if spec is not None and options:  # a recipe comes from --spec or from the options, never from both
        assert result.exit_code == 1, (argv, result.output)
