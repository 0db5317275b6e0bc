"""Command-line interface: parsing, exit codes, determinism, worker pools."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skeinlab
import skeinlab.cli as cli
from skeinlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariant:
    def test_basic(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariant", "--torus", "2", "3", "1", "--pairs", "[[[1],[1]]]", "--json"
        )
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["command"] == "invariant"
        assert doc["spec"]["m"] == 2 and doc["spec"]["n"] == 3

    def test_deterministic_output(self, capsys):
        args = ("invariant", "--torus", "1", "1", "2", "--pairs", "[[[2],[]],[[],[2]]]", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bare_partition_means_positive_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariant", "--unknot", "0", "--pairs", "[[1]]", "--json"
        )
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["labels"] == [[[1], []]]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys,
            "invariant", "--torus", "2", "3", "1", "--pairs", "[[[1],[]]]",
            "--output", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "invariant"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "invariant", "--pairs", "[[[1],[]]]")
        assert err.value.code == 2

    def test_wrong_pair_count_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "invariant", "--torus", "1", "1", "2", "--pairs", "[[[1],[]]]")
        assert err.value.code == 2


class TestBracketAndComposite:
    def test_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "--unknot", "2", "--pairs", "[[[1],[]]]", "--json"
        )
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        # tau^2 s = t^2 (t - 1/t)/(q - 1/q)
        assert doc["value"]["num"] == [[0, 1, 1, 1, "-1"], [0, 1, 3, 1, "1"]]

    def test_composite(self, capsys):
        code, out, _ = run_cli(
            capsys, "composite", "--unknot", "0", "--labels", "[[1]]", "--json"
        )
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["value"]["num"] == [[0, 1, -1, 1, "-2"], [0, 1, 1, 1, "2"]]


class TestReformAndLmov:
    def test_reform_verdict_true(self, capsys):
        code, out, _ = run_cli(
            capsys, "reform", "--torus", "2", "3", "1", "--blackboard", "--p", "2", "--json"
        )
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["verdict"] is True

    def test_rhat(self, capsys):
        code, out, _ = run_cli(
            capsys, "reform", "--torus", "1", "1", "2", "--blackboard", "--p", "2",
            "--rhat", "--json",
        )
        assert code == 0

    @pytest.mark.parametrize("p", ["0", "-1"])
    @pytest.mark.parametrize("rhat", [[], ["--rhat"]])
    def test_nonpositive_p_is_a_usage_error(self, capsys, p, rhat):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "reform", "--torus", "2", "3", "1", "--p", p, *rhat)
        assert err.value.code == 2
        assert "--p" in capsys.readouterr().err

    def test_lmov(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lmov", "--torus", "1", "1", "2", "--framing=-1,-1", "--B", "[[2],[1,1]]",
            "--json",
        )
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["verdict"] is True
        assert [0, 0, 6] in doc["N"]

    @pytest.mark.parametrize("D", ["0", "1"])
    def test_lmov_truncated_table_exit_2(self, capsys, D):
        # fhat_{(1),(1)} needs the degree-2 table; below it the value would read 0
        code, _, err = run_cli(
            capsys, "lmov", "--torus", "1", "1", "2", "--B", "[[1],[1]]", "--D", D
        )
        assert code == 2 and "degree 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--pairs", "[[[1]]]"),
        ("invariant", "--pairs", "[[[1],[1],[1]]]"),
        ("invariant", "--pairs", "[[[1],[0]]]"),
        ("composite", "--labels", "[[1.5]]"),
        ("composite", "--labels", "[[true]]"),
        ("composite", "--labels", "[[2,0,1]]"),
        ("composite", "--labels", "[3]"),
    ],
    ids=lambda argv: argv[2],
)
def test_malformed_label_exit_2(capsys, argv):
    command, flag, text = argv
    with pytest.raises(SystemExit) as err:
        run_cli(capsys, command, "--torus", "2", "3", "1", flag, text)
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


# sha256 of the --json document, so that a change of the algebra kernels cannot
# move an output byte unnoticed; together these cover Adams m = 3,
# three-component products and mixed-orientation labels.  The reform cases run
# the same link at p = 1 and at p = 2 (~1 s, degree-18 LR products), Rh at p = 2
# (~2 s, every orientation-reversal subset), and the size-4 labels [4], [1], [1]
# (~1.5 s), whose four largest bracket sums add 87 k to 119 k terms on packed rows.
# The unframed composite cases pin H_A, reversed component and kinked unknot
# included; reform-rhat pins the halving in integrality_2z.  The lmov cases
# add a three-component link, a torus link with n = 2 and the trefoil at degree 6 (its
# free energy has the largest numerators of the set) to the Hopf links.  The congruence
# cases pin two all-true ranges (p = 3 and p = 5), two all-false ranges (p = 4
# and p = 6) and p = 7 at k = 0, 1 and 2 (true), each with its exit code.
PINNED_JSON_SHA256 = [
    pytest.param(
        ("bracket", "--torus", "1", "1", "2", "--pairs", "[[[1],[]],[[1],[]]]"),
        0,
        "1e79d33bcdcdb903804f7eabb25447a006d8e48711fc128afccbcc03f12ec0b9",
        id="bracket",
    ),
    pytest.param(
        ("composite", "--torus", "2", "3", "1", "--labels", "[[2,1]]", "--framed"),
        0,
        "edf4688c0c4670553cd524e9b5de8376754b6202441753865a10a1f0f1bb56ae",
        id="composite",
    ),
    pytest.param(
        ("reform", "--torus", "3", "1", "3", "--blackboard", "--p", "1"),
        0,
        "f33ecb73b1499e95894e3ac30fed8a229d419ce2f05b529be897ee363ae4f61e",
        id="reform",
    ),
    pytest.param(
        ("reform", "--torus", "3", "1", "3", "--blackboard", "--p", "2"),
        0,
        "2cf69e29eaf910b495f1d3034dae703003459aa5bf76b4c1f29623df0da3dbd5",
        id="reform-p2",
    ),
    pytest.param(
        ("reform", "--torus", "3", "1", "3", "--blackboard", "--p", "2", "--rhat"),
        0,
        "26beca2afe46ab537909bbbfeaa244b415e32f978a1e1d018dae1c9c9d7c38eb",
        id="reform-p2-rhat",
    ),
    pytest.param(
        ("reform", "--torus", "3", "1", "3", "--blackboard", "--labels", "[[4],[1],[1]]"),
        0,
        "e31537f95914e7ded5647250ea30c912d487d77e1abc345dbb39d0274c6f64a3",
        id="reform-labels-4-1-1",
    ),
    pytest.param(
        ("lmov", "--torus", "1", "1", "2", "--framing=-1,-1", "--B", "[[2],[1,1]]"),
        0,
        "85a004cb97d132d61b12098767d5091ef1be21bcae3b18a28b2b0a1c383974e1",
        id="lmov",
    ),
    pytest.param(
        ("invariant", "--torus", "3", "4", "1", "--pairs", "[[[2,1],[1]]]"),
        0,
        "a4293e08791fd5c2a25c05269851dbadb78590b22a6fa05328ebe7c607e69025",
        id="invariant",
    ),
    pytest.param(
        ("composite", "--torus", "2", "3", "1", "--labels", "[[2,1]]"),
        0,
        "07c9ce972a4219f302ffb8af7cc53dae8d47485e424c05b5833744bbb816ad89",
        id="composite-full",
    ),
    pytest.param(
        ("composite", "--torus", "1", "1", "2", "--reversed", "1", "--labels", "[[2],[1,1]]"),
        0,
        "7a4eb6dfe15219d5a31ee0b29f871582a51ece67a479143e99b13eb61e59484f",
        id="composite-reversed",
    ),
    pytest.param(
        ("composite", "--unknot", "-1", "--labels", "[[2,1]]"),
        0,
        "2a0e7eb57f794e2e43747cb9d2656d68cb142c39577d4bd3e810d17e88f10178",
        id="composite-unknot",
    ),
    pytest.param(
        ("reform", "--torus", "1", "1", "2", "--blackboard", "--p", "2", "--rhat"),
        0,
        "2306e50a375430316209572fbee2e2b95fac0cb359f6ae52693090c12d871d1c",
        id="reform-rhat",
    ),
    pytest.param(
        ("lmov", "--torus", "1", "1", "2", "--framing=-1,-1", "--B", "[[2],[1,1]]", "--D", "6"),
        0,
        "b70f2b0434d380ce8eb2c66dfa12a367a932f9daaab6e80b1c9668184ef7267c",
        id="lmov-D6",
    ),
    pytest.param(
        ("lmov", "--torus", "1", "1", "2", "--framing=-1,-1", "--B", "[[4],[2,1]]"),
        0,
        "92a4017c78d83108c70c63e1020f32ce779fda7d291ee7715d924e0876b59118",
        id="lmov-degree7",
    ),
    pytest.param(
        ("lmov", "--torus", "2", "3", "1", "--B", "[[2,1]]"),
        0,
        "5e1280598c051bcce15569a56a197d3a89704cf36619c1e8c4574cd3948d2038",
        id="lmov-trefoil",
    ),
    pytest.param(
        ("lmov", "--torus", "2", "3", "1", "--B", "[[3,2,1]]"),
        0,
        "864bad320743abc0114657476abddc0d692e537269039ed4baa2b5466c086651",
        id="lmov-trefoil-D6",
    ),
    pytest.param(
        (
            "lmov", "--torus", "1", "1", "2", "--reversed", "1", "--framing=1,-1",
            "--B", "[[2,1],[1]]", "--D", "5",
        ),
        0,
        "0dd6653cb9a2fed865486e0a03b53363dbdf65e8c8292db498d6142206a0630b",
        id="lmov-reversed",
    ),
    pytest.param(
        ("lmov", "--torus", "1", "1", "3", "--framing=1,0,-1", "--B", "[[1],[1],[1]]", "--D", "4"),
        0,
        "9a9c45448b23ae98f09af88828df8d9dd60bf9423a9b177cc0384db393eaad5e",
        id="lmov-three-framings",
    ),
    pytest.param(
        (
            "lmov", "--torus", "1", "1", "3", "--reversed", "2", "--framing=1,0,-1",
            "--B", "[[2],[1],[]]", "--D", "4",
        ),
        0,
        "79e2631b6a4d0706cd75be4a8b6cb7eef8a81a66b0536bd4eb9c3fb4e495a003",
        id="lmov-three-framings-reversed",
    ),
    pytest.param(
        (
            "lmov", "--torus", "1", "1", "3", "--framing=-1,-1,-1",
            "--B", "[[2],[1],[1]]", "--D", "5",
        ),
        0,
        "d6df90636844265667aefeae5801955e69737ca292b6992d601d3b317e90ac9f",
        id="lmov-three-components",
    ),
    pytest.param(
        ("lmov", "--torus", "1", "2", "2", "--B", "[[2],[1]]", "--D", "5"),
        0,
        "7d60365e2c0fb11f86ae623893a1c12049fb14986f8961306345250a54ee8589",
        id="lmov-torus-n2",
    ),
    pytest.param(
        ("congruence", "--p", "3", "--k", "0..8"),
        0,
        "f018ec56347dd20188bfc888b509bd73bab0d9062c38fda33fbe5100b195aa8c",
        id="congruence-p3",
    ),
    pytest.param(
        ("congruence", "--p", "4", "--k", "0..5"),
        1,
        "985d0b9aceac5680f1db37ac21a4e2ff9df51fe49e2582e255958e86208aba89",
        id="congruence-p4",
    ),
    pytest.param(
        ("congruence", "--p", "5", "--k", "0..2"),
        0,
        "63e2ed9536915bd4771ee1ee40bee6320e92e90c2613b361c81ec82299fa8d56",
        id="congruence-p5",
    ),
    pytest.param(
        ("congruence", "--p", "6", "--k", "0..1"),
        1,
        "f6fce4006b1d801568b87d651d949dc4b8d8f4f41c34609d96282f9b805279dd",
        id="congruence-p6",
    ),
    pytest.param(
        ("congruence", "--p", "7", "--family", "t2", "--k", "0"),
        0,
        "7cff81c1ad1769ac4b2c587b4b7df794a0c9d851a1ba5893b93cbef1f88f82b9",
        id="congruence-p7-k0",
    ),
    pytest.param(
        ("congruence", "--p", "7", "--family", "t2", "--k", "1"),
        0,
        "68ecaf141318dd1a6f144aab67fd8f87e0642c2ecd3ca90383d080b86d26453b",
        id="congruence-p7",
    ),
    pytest.param(
        ("congruence", "--p", "7", "--family", "t2", "--k", "2"),
        0,
        "472653c6262891d3348f9e01de115e3e039ff550d2a6c88928207c6254d38907",
        id="congruence-p7-k2",
    ),
]


@pytest.mark.parametrize("argv, exit_code, digest", PINNED_JSON_SHA256)
def test_json_bytes_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == exit_code
    document = out.strip().splitlines()[-1]
    if exit_code:
        # the false verdicts, congruence p = 4 and p = 6: (A - B) / C is Laurent but C does
        # not divide it
        stages = {stage for _, _, stage in json.loads(document)["results"]}
        assert stages == {"not-divisible"}
    assert hashlib.sha256(document.encode()).hexdigest() == digest


class TestCongruenceAndRepro:
    def test_congruence_range(self, capsys):
        code, out, _ = run_cli(capsys, "congruence", "--p", "2", "--k", "0..1", "--json")
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["results"] == [[0, True, None], [1, True, None]]

    def test_repro_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "example-3.1")
        assert code == 0
        assert "ok" in out

    def test_special(self, capsys):
        code, out, _ = run_cli(
            capsys, "special", "--torus", "2", "3", "1", "--pairs", "[[[1],[]]]", "--json"
        )
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["value"] == [[0, 1, -4, 1, "-1"], [0, 1, -2, 1, "2"]]

    @pytest.mark.parametrize(
        "torus, pairs, value",
        [
            (
                ("2", "5", "1"),
                "[[[2,1],[2,1]]]",
                [
                    [0, 1, -36, 1, "64"], [0, 1, -34, 1, "-576"], [0, 1, -32, 1, "2160"],
                    [0, 1, -30, 1, "-4320"], [0, 1, -28, 1, "4860"], [0, 1, -26, 1, "-2916"],
                    [0, 1, -24, 1, "729"],
                ],
            ),
            (("1", "1", "2"), "[[[2],[]],[[],[2]]]", [[0, 1, 0, 1, "1"]]),
        ],
    )
    def test_special_values_pinned(self, capsys, torus, pairs, value):
        code, out, _ = run_cli(capsys, "special", "--torus", *torus, "--pairs", pairs, "--json")
        assert code == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["value"] == value


class TestSelftestAndCache:
    def test_selftest_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--suite", "symfun")
        assert code == 0
        assert "[pass] symfun:" in out

    def test_stale_cache_directory_is_not_read(self, capsys, tmp_path):
        # a character file in the layout of the former on-disk cache, with
        # chi_(2)(1,1) = 7 instead of -1; a fresh process must not read it
        (tmp_path / "chars_v1_deg2.json").write_text(
            json.dumps({"version": 1, "degree": 2, "entries": [[[2], [1, 1], 7]]})
        )
        argv = ["invariant", "--torus", "2", "3", "1", "--pairs", "[[[2],[]]]", "--json"]
        src = str(Path(skeinlab.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=src, SKEINLAB_CACHE=str(tmp_path))
        done = subprocess.run(
            [sys.executable, "-m", "skeinlab.cli", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout == run_cli(capsys, *argv)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--unknot", "0", "--pairs", "[[1]]", "--cache-dir", "DIR"),
        ("invariant", "--unknot", "0", "--pairs", "[[1]]", "--config", "FILE"),
        ("invariant", "--unknot", "0", "--pairs", "[[1]]", "--jobs", "2"),
        ("repro", "all", "--jobs", "2"),
        ("cache", "info"),
        ("congruence", "--p", "2", "--k", "0..1", "--jobs", "0"),
        ("selftest", "--jobs", "-1"),
    ],
    ids=["cache-dir", "config", "invariant-jobs", "repro-jobs", "cache", "jobs-0", "jobs-negative"],
)
def test_rejected_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: skeinlab")


@pytest.mark.parametrize("k", ["3..1", "1..0"])
def test_empty_k_range_exit_2(capsys, k):
    with pytest.raises(SystemExit) as err:
        main(["congruence", "--p", "2", "--k", k, "--json"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--k" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        # Zh takes its labels from --labels or from --p, never both
        (("reform", "--torus", "2", "3", "1", "--p", "2", "--labels", "[[1]]"), "--labels"),
        # Rh_p is summed over --p alone
        (("reform", "--torus", "2", "3", "1", "--p", "2", "--rhat", "--labels", "[[5]]"), "--labels"),
        # a k listed twice would be computed and reported twice
        (("congruence", "--p", "2", "--k", "1,1"), "--k"),
    ],
    ids=["reform-p-and-labels", "rhat-with-labels", "congruence-repeated-k"],
)
def test_conflicting_inputs_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--json"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and flag in captured.err


@pytest.mark.parametrize(
    "exc, code, message",
    [
        (ArithmeticError("a pole at q = 1"), 3, "internal error: a pole at q = 1"),
        (ZeroDivisionError("zero modulus"), 2, "error: zero modulus"),
    ],
    ids=["internal", "zero-division"],
)
def test_arithmetic_error_exit_codes(capsys, monkeypatch, exc, code, message):
    def fail(spec, pairs):
        raise exc

    monkeypatch.setattr(cli, "special_polynomial", fail)
    assert main(["special", "--torus", "2", "3", "1", "--pairs", "[[[1],[]]]"]) == code
    assert capsys.readouterr().err == message + "\n"


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the pool class that the CLI imports for an in-process stand-in; lists its max_workers."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize(
    "k, jobs, workers",
    [("0..1", "64", [2]), ("0", "64", []), ("0..3", "2", [2]), ("0..3", "1", [])],
)
def test_jobs_bounded_by_item_count(capsys, pool_sizes, k, jobs, workers):
    code, _, _ = run_cli(capsys, "congruence", "--p", "2", "--k", k, "--jobs", jobs)
    assert code == 0
    assert pool_sizes == workers


@pytest.mark.parametrize(
    "argv",
    [
        ("congruence", "--p", "2", "--k", "0..3", "--json"),
        ("selftest", "--suite", "symfun", "--suite", "lmov", "--json"),
    ],
    ids=["congruence", "selftest"],
)
def test_worker_pool_output_identical(capsys, argv):
    serial = run_cli(capsys, *argv)
    pooled = run_cli(capsys, *argv, "--jobs", "2")
    assert pooled == serial


def test_import_loads_no_process_pool():
    # the pool is imported only when a command runs on two or more workers
    src = str(Path(skeinlab.__file__).parent.parent)
    code = (
        "import sys, skeinlab.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"
