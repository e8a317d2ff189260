import contextlib
import io
import json
import pathlib
import random
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from vcbundle import (
    BudgetExceededError, GoodsUniverse, InvalidInputError, Profile, Valuation, jsonio, project_profile, run_vc,
)
from vcbundle.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "goldens"
INSTANCES = ROOT / "instances"

sys.path.insert(0, str(ROOT))
from scripts.regen_goldens import INVOCATIONS  # noqa: E402


def cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "vcbundle.cli", *argv],
        capture_output=True,
        cwd=ROOT,
    )


class TestSubcommands:
    def test_auction_truthful(self):
        proc = cli("auction", "--instance", str(INSTANCES / "two-good-pair.json"))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["surplus"] == 2 and doc["revenue"] == 0
        assert doc["allocation"] == {"1": "a", "2": "b", "seller": ""}

    def test_auction_with_family_projection(self):
        proc = cli(
            "auction",
            "--instance", str(INSTANCES / "two-good-pair.json"),
            "--family", str(INSTANCES / "trivial-field.json"),
        )
        doc = json.loads(proc.stdout)
        assert doc["surplus"] == 1 and doc["revenue"] == 1

    def test_auction_seller_tie(self):
        proc = cli(
            "auction",
            "--instance", str(INSTANCES / "two-good-pair.json"),
            "--tie", "seller",
        )
        assert proc.returncode == 0

    def test_analyze_sigma_verdict(self):
        proc = cli("analyze-sigma", "--family", str(INSTANCES / "four-good-family.json"))
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "violated"
        assert doc["witness_gap"] == 1
        assert doc["classification"]["witness"]["kind"] == "missing_disjoint_union"
        assert doc["communication_complexity"] == 6

    def test_analyze_partition_single_part(self):
        proc = cli("analyze-partition", "--sizes", "21")
        doc = json.loads(proc.stdout)
        assert doc["r_pi"] == 21
        assert doc["runtime"] is None

    def test_analyze_partition_timings(self):
        default = json.loads(cli("analyze-partition", "--sizes", "2,4,3").stdout)
        timed = json.loads(cli("analyze-partition", "--sizes", "2,4,3", "--timings").stdout)
        runtime = timed.pop("runtime")
        assert type(runtime) in (int, float) and runtime >= 0
        assert default.pop("runtime") is None and timed == default

    def test_plane_q2(self):
        proc = cli("plane", "--q", "2")
        doc = json.loads(proc.stdout)
        assert doc["points"] == 7
        assert len(doc["lines"]) == 7
        assert all(len(line) == 3 for line in doc["lines"])

    def test_project_table(self):
        proc = cli(
            "project",
            "--valuation", str(INSTANCES / "pair-valuation.json"),
            "--family", str(INSTANCES / "four-good-family.json"),
        )
        doc = json.loads(proc.stdout)
        values = {row["bundle"]: row["value"] for row in doc["values"]}
        assert values["bcd"] == 1 and values["abc"] == 1 and values["abcd"] == 1
        assert values["bc"] == 0

    def test_reproduce_single_target(self):
        proc = cli("reproduce", "example2")
        assert proc.returncode == 0
        assert b"[PASS] example2" in proc.stderr

    def test_reproduce_all_honours_q(self):
        proc = cli("reproduce", "all", "--q", "3")
        assert proc.returncode == 0
        targets = [report["target"] for report in json.loads(proc.stdout)["targets"]]
        assert "thm4-q3" in targets and "thm4-q2" not in targets


class TestExitCodes:
    def test_missing_file_is_invalid_input(self):
        assert cli("auction", "--instance", "/no/such/file.json").returncode == 1

    def test_bad_flags_are_invalid_input(self):
        assert cli("auction").returncode == 1
        assert cli("nonsense").returncode == 1

    def test_budget_exceeded(self):
        assert cli("analyze-partition", "--sizes", "1,1,1,1,1,1,1,1,1").returncode == 2

    def test_unsupported_plane_order(self):
        assert cli("plane", "--q", "4").returncode == 1

    def test_plane_over_budget(self):
        # 48 * 2257 = 108,336 incidences: refused before any point is built.
        assert cli("plane", "--q", "47").returncode == 2

    def test_seed_is_rejected_where_nothing_reads_it(self):
        assert cli("plane", "--q", "2", "--seed", "3").returncode == 1

    def test_gap_sweep_takes_no_tie_mode(self):
        # The deviation gap is the same under every tie rule, so there is no knob.
        family = INSTANCES / "four-good-family.json"
        proc = cli("analyze-sigma", "--family", str(family), "--mode", "adversarial")
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr

    def test_invalid_instance_contents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"goods": ["a"], "valuations": [{"kind": "dense", "values": {"a": -1}}]}')
        assert cli("auction", "--instance", str(bad)).returncode == 1

    @pytest.mark.parametrize("valuation", [
        '{"kind": "atoms", "atoms": [{"bundle": "a", "weight": 1e999}]}',
        '{"kind": "dense", "values": {"a": 1e999}}',
        '{"kind": "atoms", "atoms": [{"bundle": "a", "weight": NaN}]}',
    ])
    def test_non_finite_numbers_are_invalid_input(self, tmp_path, valuation):
        bad = tmp_path / "bad.json"
        bad.write_text('{"goods": ["a"], "valuations": [%s]}' % valuation)
        proc = cli("auction", "--instance", str(bad))
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "weight", ["1" + "0" * 4999, '"1e1000000"'], ids=["5000-digit-integer", "huge-exponent"]
    )
    def test_oversized_numbers_are_invalid_input(self, tmp_path, weight):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"goods": ["a"], "valuations": [{"kind": "atoms", "atoms": [{"bundle": "a", "weight": %s}]}]}'
            % weight
        )
        proc = cli("auction", "--instance", str(bad))
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("weight", ["1e4300", "1e-4300"])
    def test_results_past_the_digit_limit_are_invalid_input(self, tmp_path, weight, fmt):
        # The weight parses, but the surplus needs 4301 digits to print.
        path = tmp_path / "big.json"
        path.write_text(
            '{"goods": ["a"], "valuations": [{"kind": "atoms", "atoms": [{"bundle": "a", "weight": "%s"}]}]}'
            % weight
        )
        proc = cli("auction", "--instance", str(path), "--format", fmt)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"4300" in proc.stderr

    def test_projection_past_the_digit_limit_is_invalid_input(self, tmp_path):
        valuation = tmp_path / "tiny.json"
        valuation.write_text('{"goods": ["a"], "valuation": {"kind": "dense", "values": {"a": "1e-4300"}}}')
        family = tmp_path / "family.json"
        family.write_text('{"goods": ["a"], "bundles": ["a"]}')
        proc = cli("project", "--valuation", str(valuation), "--family", str(family))
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"4300" in proc.stderr

    @pytest.mark.parametrize("valuation", [
        '{"kind": "dense", "values": {"ab": 1, "ba": 2}}',
        '{"kind": "dense", "values": {"aa": 1, "ab": 1}}',
        '{"kind": "atoms", "atoms": [{"bundle": "bab", "weight": 1}]}',
    ])
    def test_ambiguous_bundle_keys_are_invalid_input(self, tmp_path, valuation):
        bad = tmp_path / "bad.json"
        bad.write_text('{"goods": ["a", "b"], "valuations": [%s]}' % valuation)
        proc = cli("auction", "--instance", str(bad))
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr

    def test_labels_with_two_parses_are_invalid_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"goods": ["a", "b", "ab"], "valuations": [{"kind": "dense", "values": {"ab": 1}}]}')
        proc = cli("auction", "--instance", str(bad))
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"'ab' has two parses" in proc.stderr

    @pytest.mark.parametrize("bundle", ["5", '["a", "b"]', "null", '{"a": 1}'])
    def test_non_string_atom_bundles_are_invalid_input(self, tmp_path, bundle):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"goods": ["a", "b"], "valuations": [{"kind": "atoms", "atoms": [{"bundle": %s, "weight": 1}]}]}'
            % bundle
        )
        proc = cli("auction", "--instance", str(bad))
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"atom bundles must be strings" in proc.stderr


class TestDeterminismAndGoldens:
    def test_byte_identical_reruns(self):
        a = cli("analyze-sigma", "--family", str(INSTANCES / "four-good-family.json"),
                "--profiles", "random:5", "--seed", "42")
        b = cli("analyze-sigma", "--family", str(INSTANCES / "four-good-family.json"),
                "--profiles", "random:5", "--seed", "42")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDENS.iterdir()))
    def test_goldens_match(self, name):
        argv = INVOCATIONS[name]
        proc = cli(*argv)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDENS / name).read_bytes()


class TestBudgetExits:
    def test_atom_budget_exits_2_without_traceback(self, tmp_path):
        # One all-sparse buyer of 1200 atoms is one packing of 1200 atoms;
        # uncapped, that recursion overflowed the interpreter stack.
        goods = [chr(ord("a") + i) for i in range(10)]
        atoms = [{"bundle": goods[i % 10], "weight": 1} for i in range(1200)]
        doc = {"goods": goods, "valuations": [{"kind": "atoms", "atoms": atoms}]}
        path = tmp_path / "many-atoms.json"
        path.write_text(json.dumps(doc))
        proc = cli("auction", "--instance", str(path))
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"64" in proc.stderr and b"1200" in proc.stderr

    def test_mixed_profile_past_the_atom_cap_exits_0(self, tmp_path):
        # The dense route values the awarded bundles from tables, so a buyer
        # of 100 overlapping atoms beside dense buyers needs no packing, nor
        # does a buyer of 1200 atoms beside one dense buyer.
        goods = [chr(ord("a") + i) for i in range(10)]
        rng = random.Random(7)
        atoms = [(sum(1 << g for g in rng.sample(range(10), 2)), rng.randint(1, 9)) for _ in range(100)]
        many = {"kind": "atoms", "atoms": [
            {"bundle": "".join(goods[g] for g in range(10) if mask >> g & 1), "weight": w} for mask, w in atoms
        ]}
        zero = {"kind": "dense", "values": {}}
        path = tmp_path / "mixed-many-atoms.json"
        path.write_text(json.dumps({"goods": goods, "valuations": [zero, zero, many]}))
        proc = cli("auction", "--instance", str(path))
        assert proc.returncode == 0, proc.stderr
        universe = GoodsUniverse(tuple(goods))
        tables = Profile(universe, (
            Valuation.dense(universe, [0] * 1024),
            Valuation.dense(universe, [0] * 1024),
            Valuation.from_atoms(universe, atoms).to_dense(),
        ))
        assert json.loads(proc.stdout) == jsonio.outcome_payload(run_vc(tables))
        atoms = [{"bundle": goods[i % 10], "weight": 1} for i in range(1200)]
        path = tmp_path / "one-dense-many-atoms.json"
        path.write_text(json.dumps({"goods": goods, "valuations": [zero, {"kind": "atoms", "atoms": atoms}]}))
        proc = cli("auction", "--instance", str(path))
        assert proc.returncode == 0, proc.stderr
        tables = Profile(universe, (
            Valuation.dense(universe, [0] * 1024),
            Valuation.from_atoms(universe, [(1 << (i % 10), 1) for i in range(1200)]).to_dense(),
        ))
        assert json.loads(proc.stdout) == jsonio.outcome_payload(run_vc(tables))

    def test_all_sparse_truth_past_the_atom_cap_exits_0(self, tmp_path):
        # Reports projected onto the family are tables, so the all-sparse
        # truth, with a buyer of 100 overlapping atoms, is valued from tables.
        goods = [chr(ord("a") + i) for i in range(10)]
        rng = random.Random(7)
        atoms = [(sum(1 << g for g in rng.sample(range(10), 2)), rng.randint(1, 9)) for _ in range(100)]
        many = {"kind": "atoms", "atoms": [
            {"bundle": "".join(goods[g] for g in range(10) if mask >> g & 1), "weight": w} for mask, w in atoms
        ]}
        instance = tmp_path / "sparse-truth.json"
        instance.write_text(json.dumps({"goods": goods, "valuations": [{"kind": "atoms", "atoms": []}, many]}))
        family = tmp_path / "halves.json"
        family.write_text(json.dumps({"goods": goods, "bundles": ["abcdefghij", "abcde", "fghij"]}))
        proc = cli("auction", "--instance", str(instance), "--family", str(family))
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        universe = GoodsUniverse(tuple(goods))
        truth = Profile(universe, (Valuation.dense(universe, [0] * 1024), Valuation.from_atoms(universe, atoms).to_dense()))
        reports = project_profile(truth, jsonio.parse_family(json.loads(family.read_text())))
        assert json.loads(proc.stdout) == jsonio.outcome_payload(run_vc(reports, true_profile=truth))

    def test_adversarial_tie_walk_budget_exits_2_without_traceback(self, tmp_path):
        # Two buyers each hold a unit atom on every one of 32 goods: 2^32
        # optimal packings for the adversarial walk.
        goods = [f"g{i}" for i in range(32)]
        buyer = {"kind": "atoms", "atoms": [{"bundle": g, "weight": 1} for g in goods]}
        path = tmp_path / "two-buyers-every-good.json"
        path.write_text(json.dumps({"goods": goods, "valuations": [buyer, buyer]}))
        proc = cli("auction", "--instance", str(path), "--tie", "adversarial:1")
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"tie walk" in proc.stderr

    def test_family_target_budget_exits_2_without_traceback(self):
        # One part of 1200 goods: uncapped, the search's first target of 1200
        # sets overflowed the interpreter stack.
        proc = cli("analyze-partition", "--sizes", "1200")
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"800" in proc.stderr and b"1200" in proc.stderr

    def test_sweep_budget_names_limit_and_size(self, tmp_path):
        path = tmp_path / "nine-goods.json"
        path.write_text(json.dumps({"goods": list("abcdefghi"), "bundles": ["abcdefghi"]}))
        proc = cli("analyze-sigma", "--family", str(path))
        assert proc.returncode == 2
        assert b"m <= 8" in proc.stderr and b"m = 9" in proc.stderr


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("vcbundle ")]


def test_readme_command_examples_run():
    commands = _readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        proc = cli(*argv)
        assert proc.returncode == 0, (argv, proc.stderr.decode())


def test_partition_shapes_script_reports_minimum(capsys):
    from scripts.partition_shapes import main

    assert main(["--m", "6", "--k", "3"]) == 0
    assert "minimum ratio over 3 shapes: 3," in capsys.readouterr().out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _documents(draw):
    """An instance, family and single valuation in one document, often
    valid, with fields replaced by arbitrary JSON at random depths."""
    labels = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "ab", "bb"]), min_size=1, max_size=4, unique=True))
    bundle = st.lists(st.sampled_from(labels), max_size=3).map("".join)
    weight = st.integers(0, 9) | st.sampled_from(["1/2", "7/3", "0.25", "-1", "1e2"])
    valuation = st.fixed_dictionaries({
        "kind": st.just("atoms"),
        "atoms": st.lists(st.fixed_dictionaries({"bundle": bundle, "weight": weight}), max_size=3),
    }) | st.fixed_dictionaries({"kind": st.just("dense"), "values": st.dictionaries(bundle, weight, max_size=3)})
    doc = {
        "goods": labels,
        "valuations": draw(st.lists(valuation, min_size=1, max_size=3)),
        "bundles": draw(st.lists(bundle, max_size=4)),
        "valuation": draw(valuation),
    }
    while draw(st.booleans()):
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                node[key] = draw(_JSON)
                break
            node = child
    return doc


_DOCUMENT = _documents() | _JSON


class TestArbitraryJson:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_document_exits_0_1_or_2_without_traceback(self, tmp_path_factory, data):
        doc = data.draw(_DOCUMENT)
        family = data.draw(st.just(doc) | _DOCUMENT)
        for parse, arg in ((jsonio.parse_instance, doc), (jsonio.parse_family, family)):
            try:
                parse(arg)
            except (InvalidInputError, BudgetExceededError):
                pass
        folder = tmp_path_factory.getbasetemp()
        doc_path, family_path = str(folder / "fuzz-doc.json"), str(folder / "fuzz-family.json")
        for path, content in ((doc_path, doc), (family_path, family)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        for argv in (
            ["auction", "--instance", doc_path],
            ["auction", "--instance", doc_path, "--family", family_path],
            ["project", "--valuation", doc_path, "--family", family_path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            assert code in (0, 1, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()
