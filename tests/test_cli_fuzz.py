"""Near-miss fuzzing of every command, run in this process: ``generate``,
``analyze``, ``project``, ``twin``, ``tables``, ``probe``, ``discretize``,
``baseline``, the imaging commands ``encode``, ``decode``, ``deblur``,
``pedestal``, ``ghost`` and ``noise-study``, and ``watermark embed`` and
``watermark locate``.

Each example draws a family (or a probe recipe, an input) and option text
from near misses of valid input: 0, -1, lengths of the form 4n+1, odd bases,
``nan``, ``inf``, ``1_0``, ``+7``, empty text, bad factor tokens, ``3=1/0``,
directions such as ``1:`` and ``1:1:1:1``, and input files that are empty,
header only, truncated, all zero, a single cell, 3-D or not finite.  Every
example may also draw a ``--name``: a plain file name, or a near miss (a
path, ``..``, empty text) that must exit 1.  Every draw is cheap to build.
Every run must end with an exit code of the CLI's taxonomy, print no
traceback and raise no ``RuntimeWarning``, write nothing outside ``--out``,
and leave ``--out`` empty unless it succeeded.  An option that the run does
not read, per the tables below, must exit 1.
"""

import warnings

from hypothesis import given, settings, strategies as st

from conftest import invoke

INTS = ["0", "-1", "1_0", "+7", "nan", "inf", "", "x", "2.5"]
# --name values: plain file names, which name the files, and near misses, which exit 1
NAMES = ["run", "-dashed", "a.b", " "]
NOT_NAMES = ["../x", "a/b", "", ".", "..", "x/", "/x"]

# option -> (admissible values, near misses); a foreign option is given an
# admissible value, a HuffmanSpec default (--b 2, --variant even) included
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


def _invoke(tmp_path_factory, data, argv, keeps=(0,)):
    """Run ``argv``, with a drawn ``--name`` or none, and ``{in}`` naming a fresh directory of input files.

    Checks the exit and returns the result, with the drawn name as ``name``.  Only an exit code in ``keeps``
    may leave files in ``--out``, and no run may write beside it.
    """
    name = data.draw(st.none() | st.sampled_from(NAMES + NOT_NAMES), label="--name")
    root = tmp_path_factory.mktemp("fuzz")
    argv = [arg.replace("{in}", str(root)) for arg in argv] + ([] if name is None else ["--name", name])
    (root / "spec.json").write_text('{"coefficients": {"3": 0.25}, "samples": [9]}')
    (root / "step.json").write_text('{"coefficients": {"3": 0.25}, "samples": [9], "step": 0.5}')
    (root / "cut.json").write_text('{"coefficients": {"3": 0.2')
    for fname, text in {**INPUTS, **IMAGES, **ARRAYS}.items():
        (root / fname).write_text(text)
    inputs = sorted(p.name for p in root.iterdir())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke([*argv, "--out", str(root / "out")])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert result.exit_code in (0, 1, 2, 3, 4), (argv, result.output)
    assert "Traceback" not in result.output and "RuntimeWarning" not in result.output, (argv, result.output)
    left = sorted(p.name for p in (root / "out").iterdir()) if (root / "out").is_dir() else []
    assert result.exit_code in keeps or not left, (argv, result.output, left)
    assert sorted(p.name for p in root.iterdir() if p.name != "out") == inputs, (argv, result.output)
    if name in NOT_NAMES:  # refused as the command line is parsed
        assert result.exit_code == 1, (argv, result.output)
    result.name = name
    return result


def _options(data, table, always=()):
    """Command-line words for a drawn subset of ``table``'s options (and every one in ``always``).

    ``table`` maps an option to its values, or to None for a flag.
    """
    drawn = sorted(set(table) - set(always))
    options = data.draw(st.lists(st.sampled_from(drawn), unique=True), label="options") if drawn else []
    words = []
    for opt in [*always, *options]:
        values = table[opt]
        words += [opt] if values is None else [opt, data.draw(st.sampled_from(values), label=opt)]
    return words


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
        argv += [foreign, data.draw(st.sampled_from(GENERATE[foreign][0]), label="foreign value")]
    result = _invoke(tmp_path_factory, data, argv)
    if foreign is not None:  # refused before anything is built, whatever the other values
        assert result.exit_code == 1, (argv, result.output)
        if all(value in GENERATE[opt][0] for opt, value in values.items()) and result.name not in NOT_NAMES:
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
    result = _invoke(tmp_path_factory, data, argv)
    if spec is not None and options:  # a recipe comes from --spec or from the options, never from both
        assert result.exit_code == 1, (argv, result.output)


# input files of discretize, written beside the probe specs
INPUTS = {
    "ok.txt": "5\n0.1 0.5 1 0.5 0.1\n",
    "grid.txt": "2 3\n1 -2 3\n0.5 4 -1\n",
    "empty.txt": "",
    "cut.txt": "5\n0.1 0.5 1",
    "shape.txt": "x\n1 2\n",
    "nan.txt": "3\n1 nan 2\n",
    "inf.txt": "3\n1 -inf 2\n",
    "huge.txt": "3\n1 1e400 2\n",
    "tiny.txt": "2\n1e-310 5e-311\n",
    "zero.txt": "3\n0 0 0\n",
    "one.txt": "1\n-3\n",
}

DISCRETIZE = {
    "--airy": ["-4:4:0.5", "-2:2:0.25", "4:-4:0.5", "-4:4:0", "-4:4:-0.5", "nan:4:0.5", "-4:inf:0.5", "-4:4",
               "-4:4:0.5:1", "", "x:4:0.5", "-4:4:1e400", "1_0:2_0:1", "+1:+3:+1"],
    "--bits": ["3", "7", "15", "31", "62", "63", "64", "2", "0", "-1", "nan", "", "1_0", "+7"],
    "--max-iters": ["0", "1", "5", "-1", "nan", "", "1_0", "+3", "2.5"],
    "--objective": ["M", "R", "m", "S", ""],
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_discretize_near_misses_end_in_a_clean_exit(tmp_path_factory, data):
    source = data.draw(st.sampled_from([None, "airy", "missing.txt", *INPUTS]), label="source")
    argv = ["discretize"] if source in (None, "airy") else ["discretize", "{in}/" + source]
    options = data.draw(st.lists(st.sampled_from(sorted(DISCRETIZE)), unique=True), label="options")
    if source == "airy" and "--airy" not in options:
        options.append("--airy")
    if "--max-iters" not in options:  # the default 500 iterations are not a near miss
        argv += ["--max-iters", "5"]
    for opt in options:
        argv += [opt, data.draw(st.sampled_from(DISCRETIZE[opt]), label=opt)]
    result = _invoke(tmp_path_factory, data, argv)
    if (source not in (None, "airy")) == ("--airy" in options):  # INPUT or --airy, exactly one
        assert result.exit_code == 1, (argv, result.output)


BASELINE = {
    "--shape": ["5,5", "3", "2,3", "1", "3,3,2", "0", "-1", "2,0", "", "x", "2,,2", "+3", "1_0", "nan"],
    "--values": ["-12:14", "0:3", "0:30", "3:0", "0:0", "0", "0:3:1", "", "x:y", "nan:3", "-1_0:1_0", "+0:+30"],
    "--trials": ["1", "5", "30", "0", "-1", "", "nan", "1_0", "+3"],
    "--seed": ["0", "7", "-1", "1_0", "", "nan", "+3", str(2**64), str(-2**63 - 1)],
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_baseline_near_misses_end_in_a_clean_exit(tmp_path_factory, data):
    options = data.draw(st.lists(st.sampled_from(sorted(BASELINE)), unique=True), label="options")
    argv = ["baseline"] if "--trials" in options else ["baseline", "--trials", "5"]  # not the default 10 000
    for opt in options:
        argv += [opt, data.draw(st.sampled_from(BASELINE[opt]), label=opt)]
    _invoke(tmp_path_factory, data, argv)


# inputs of the imaging commands, written beside the probe specs
IMAGES = {
    "obj.txt": "4 4\n1 2 3 4\n5 6 7 8\n0 1 0 1\n9 8 7 6\n",
    "mask.txt": "3 3\n1 2 -1\n2 -4 2\n-1 2 1\n",
    "blur.txt": "6 6\n" + "".join(" ".join(str((r * c) % 5 - 2) for c in range(6)) + "\n" for r in range(6)),
    "img.pgm": "P5\n3 2\n255\nabcdef",
    "empty.img": "",
    "header.txt": "4 4\n",
    "cut.pgm": "P5\n4 4\n255\nab",
    "nan.img": "2 2\n1 nan\n2 3\n",
    "line.txt": "3\n1 -2 1\n",
    "zero.img": "2 2\n0 0\n0 0\n",
}
IMAGING = {  # command -> options it reads, each with its admissible values and near misses
    "encode": {"--plot": None},
    "decode": {"--plot": None},
    "deblur": {"-p": ["2", "3", "0", "-1", "1_0", "+7", "nan", ""], "--plot": None},
    "pedestal": {"--kappa": ["auto", "5", "2.5", "nan", "inf", "-1", "1e400", ""]},
    "ghost": {
        "--kappa": ["auto", "4", "nan", "inf", "-1", "1e400", ""],
        "--kappa-prime": ["exact", "boundary", "0.5", "x", "-0", ""],
        "--scan": ["0:6,0:6", "1:4,:", ":", "0:5,", "a:b", "0:2,0:2,0:2"],
        "--plot": None,
    },
    "noise-study": {
        "--sigma": ["1", "0.5", "nan", "-1"],
        "--trials": ["2", "0"],
        "--seed": ["0", "7", "-1", str(2**64)],
    },
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_imaging_near_misses_end_in_a_clean_exit(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(IMAGING)), label="command")
    inputs = [data.draw(st.sampled_from(sorted(IMAGES)), label=role) for role in ("object", "mask")]
    argv = [command, *("{in}/" + name for name in inputs)]
    if command == "noise-study":  # not the default 500 trials
        argv += ["--trials", "2"]
    argv += _options(data, IMAGING[command])
    _invoke(tmp_path_factory, data, argv, keeps=(0, 4) if command == "deblur" else (0,))  # a diverged deblur keeps its record


# more near-miss arrays, for the array and watermark commands
ARRAYS = {
    "h9.txt": "9\n1 3 4 2 -2 -2 4 -3 1\n",
    "cube.txt": "2 2 2\n1 -1 2 1\n-1 1 1 3\n",
    "row.txt": "1 5\n1 2 -3 4 5\n",
    "head.pgm": "P5\n3 2\n255\n",
    "big.txt": "2\n9223372036854775807 -9223372036854775808\n",
    "shape0.txt": "0 3\n",
}
FILES = sorted(["missing.txt", *INPUTS, *IMAGES, *ARRAYS])
ARRAY = {  # command -> options it reads, each with its admissible values and near misses (None: a flag)
    "analyze": {"--oversample": ["1", "2", "3", "0", "-1", "1_0", "+2", "nan", "", "2.5"], "--plot": None},
    "project": {"--dir": ["1:0", "0:1", "1:1", "-1:2", "2:-1", "1:1:1", "1:-1:2", "0:0:1", "2:4", "1:", "0:0",
                          "1:1:1:1", "1_0:1", ":", "", "x:1", "nan:1", "+1:2", "1", "1.5:1", "0:-0"]},
    "twin": {},
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_array_command_near_misses_end_in_a_clean_exit(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(ARRAY)), label="command")
    argv = [command, "{in}/" + data.draw(st.sampled_from(FILES), label="input")]
    argv += _options(data, ARRAY[command], always=["--dir"] if command == "project" else [])
    _invoke(tmp_path_factory, data, argv)


TABLES = {
    "--e": ["3", "4", "1", "0", "-1", "1_0", "+3", "nan", "", "2.5"],
    "--f-min": ["3", "1", "5", "0", "-1", "1_0", "nan", "", "+2"],
    "--f-max": ["4", "6", "2", "0", "-1", "+5", "nan", "", "2.5"],
}


def _int_or_none(text: str):
    """``text`` read as argparse's ``type=int`` reads it, or None."""
    try:
        return int(text)
    except ValueError:
        return None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tables_near_misses_end_in_a_clean_exit(tmp_path_factory, data):
    table = data.draw(st.sampled_from(["1", "2", "3", "0", "", "1_0", "+2", None]), label="--table")
    argv = ["tables", *_options(data, TABLES)]
    if table is not None:
        argv += ["--table", table]
    if table != "1" and "--f-max" not in argv:  # not the default 20
        argv += ["--f-max", "4"]
    result = _invoke(tmp_path_factory, data, argv)
    if table == "1" and len(argv) > 3:  # table 1 reads none of the table-2 options
        assert result.exit_code == 1, (argv, result.output)
    words = dict(zip(argv[1::2], argv[2::2]))
    low, high = (_int_or_none(words.get(opt, default)) for opt, default in (("--f-min", "3"), ("--f-max", "20")))
    if low is not None and high is not None and low > high:  # no f to solve for
        assert result.exit_code == 1, (argv, result.output)


WATERMARK = {
    "embed": {"--offset": ["0,0", "1,2", "2,1", "3,3", "-1,0", "0", "0,0,0", "", "x", "1_0,1", "+1,1", "nan,0",
                           "1,", ",", "9223372036854775808,0"],
              "--plot": None},
    "locate": {},
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_watermark_near_misses_end_in_a_clean_exit(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(WATERMARK)), label="command")
    inputs = [data.draw(st.sampled_from(FILES), label=role) for role in ("image", "mark")]
    argv = ["watermark", command, *("{in}/" + name for name in inputs)]
    argv += _options(data, WATERMARK[command], always=["--offset"] if command == "embed" else [])
    _invoke(tmp_path_factory, data, argv)
