import collections
import hashlib
import json
import random

import pytest
from lane_oracle import corrupted_table

from revlab import classify, cli, states, verify
from revlab.cli import DEFAULT_SEED, main
from revlab.fixtures import (
    FIG1_OPERATOR_TEXT,
    FIG1_STATE_1_TEXT,
    KARL_OPERATOR_TEXT,
    KARL_STATE_TEXT,
)
from revlab.operators import ExtensionalOperator, RevisionOperator, UpdatePolicy, dump_operator, tabulate
from revlab.orders import RankedOrder
from revlab.prop import Signature, parse_models
from revlab.states import EpistemicState, dump_state, enumerate_states, parse_state, sample_states
from revlab.transitions import TransitionTable

AB = Signature.of("a b")
ABC = Signature.of("a b c")


@pytest.fixture
def karl_files(tmp_path):
    state = tmp_path / "karl.state"
    op = tmp_path / "karl.op"
    state.write_text(KARL_STATE_TEXT)
    op.write_text(KARL_OPERATOR_TEXT)
    return str(state), str(op)


class TestRevise:
    def test_karl_sequence(self, karl_files, capsys):
        state, op = karl_files
        assert main(["revise", "--state", state, "--operator", op, "t", "o"]) == 0
        out = capsys.readouterr().out
        assert out.count("bel: 001\n") == 2
        assert "scope: 001\n" in out

    def test_empty_formula_list_echoes_state(self, karl_files, capsys):
        state, op = karl_files
        assert main(["revise", "--state", state, "--operator", op]) == 0
        out = capsys.readouterr().out
        assert "bel: 001 010 011" in out

    def test_fig1(self, tmp_path, capsys):
        state = tmp_path / "s1.state"
        op = tmp_path / "il.op"
        state.write_text(FIG1_STATE_1_TEXT)
        op.write_text(FIG1_OPERATOR_TEXT)
        assert main(["revise", "--state", str(state), "--operator", str(op), "a"]) == 0
        assert "bel: 10" in capsys.readouterr().out

    def test_bad_formula(self, karl_files, capsys):
        state, op = karl_files
        assert main(["revise", "--state", state, "--operator", op, "t &"]) == 2
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_dl_all_passes(self, karl_files, capsys):
        _, op = karl_files
        assert main(["check", "--operator", op, "--sig", "a b", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("result=PASS") == 7
        assert "CHECK DL7" in out

    def test_il_fails_cl2_with_witness(self, tmp_path, capsys):
        op = tmp_path / "il.op"
        op.write_text(FIG1_OPERATOR_TEXT)
        code = main(
            [
                "check", "--operator", str(op), "--sig", "a b",
                "--global-consistency", "--max-counterexamples", "10000", "CL2",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "CHECK CL2" in out and "result=FAIL" in out
        assert "bel: 00 01 10 11" in out  # the all-models state witnesses the failure

    def test_il_operator_checks_the_il_universe(self, tmp_path, capsys):
        op = tmp_path / "il.op"
        op.write_text("family: il\nil_scope: 3\n")
        assert main(["check", "--operator", str(op), "--sig", "a b", "IL1"]) == 0
        out = capsys.readouterr().out
        assert "# universe: il (" in out and "result=PASS" in out

    def test_bad_id_lists_valid(self, karl_files, capsys):
        _, op = karl_files
        assert main(["check", "--operator", op, "--sig", "a b", "DL9"]) == 2
        err = capsys.readouterr().err
        assert "DL9" in err and "DL1" in err and "P13a" in err

    def test_json_format(self, karl_files, capsys):
        _, op = karl_files
        assert (
            main(["check", "--operator", op, "--sig", "a b", "--format", "json", "DL1"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][0]["id"] == "DL1"
        assert doc["checks"][0]["result"] == "PASS"
        assert doc["seed"] == 0

    def test_theorem_id(self, karl_files, capsys):
        _, op = karl_files
        code = main(
            ["check", "--operator", op, "--sig", "a b", "--global-consistency", "P13a"]
        )
        assert code == 0
        assert "CHECK P13a" in capsys.readouterr().out

    def test_sampled_n3_records_seed(self, karl_files, capsys):
        _, op = karl_files
        code = main(
            [
                "check", "--operator", op, "--sig", "a b c",
                "--global-consistency", "--samples", "60", "--seed", "9", "DL1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# seed: 9" in out and "sampled=True" in out

    def test_deterministic_output(self, karl_files, capsys):
        _, op = karl_files
        argv = ["check", "--operator", op, "--sig", "a b", "DL1", "DL2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


# The JSON report of a sampled 3-atom check of two theorems and a postulate,
# pinned from the command that passed the sampled states to the suites;
# re-pinned when the β of a sampled DL7 input ranged over every class
# (DL7's instance count went from 60 to 15,360).
SAMPLED_CHECK_JSON_DIGEST = "9538eda98cedbf88"


def test_sampled_check_json_pinned(capsys):
    main(["check", "--sig", "a b c", "--samples", "60", "--format", "json", "P13a", "P-FCFR", "DL7"])
    out = capsys.readouterr().out
    assert [row["id"] for row in json.loads(out)["checks"]] == ["P13a", "P-FCFR", "DL7"]
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == SAMPLED_CHECK_JSON_DIGEST


# The JSON reports of `revlab check all` at 2 atoms on a dl lex/doc operator
# file, and of the seven DL ids on that operator as a lookup table with 40
# seeded entries replaced, which fails some of them.  Pinned from the
# checker that walked every state of the universe for every postulate.
EXHAUSTIVE_CHECK_JSON_DIGEST = "3cc6f84de3d2b623"


def test_exhaustive_check_json_pinned(tmp_path, capsys):
    op = RevisionOperator("dl", UpdatePolicy("lex", "doc"))
    policy, table = tmp_path / "dl.op", tmp_path / "table.op"
    policy.write_text(dump_operator(op))
    table.write_text(dump_operator(corrupted_table(op, enumerate_states(AB, "faithful"), 40, 3)))
    h = hashlib.sha256()
    for path, ids in ((policy, ["all"]), (table, [f"DL{i}" for i in range(1, 8)])):
        main(["check", "--operator", str(path), "--sig", "a b", "--format", "json", *ids])
        out = capsys.readouterr().out
        assert [row["id"] for row in json.loads(out)["checks"]] == [f"DL{i}" for i in range(1, 8)]
        h.update(out.encode())
    assert h.hexdigest()[:16] == EXHAUSTIVE_CHECK_JSON_DIGEST


def test_sampled_check_builds_each_prior_row_once(monkeypatch, capsys):
    # The suite calls of one run share a table, so a sampled state's belief
    # row is built once per run, not once per postulate.
    built = collections.Counter()
    bel_row_of = classify.bel_row_of

    def counting(op, st, sig):
        if not isinstance(op, TransitionTable):  # a table's own row read passes through
            built[st] += 1
        return bel_row_of(op, st, sig)

    monkeypatch.setattr(classify, "bel_row_of", counting)
    assert main(["check", "--sig", "a b c", "--samples", "100", "all"]) == 0
    assert capsys.readouterr().out.count("result=PASS") == 7
    sampled = sample_states(Signature.of("a b c"), "faithful", 100, random.Random(DEFAULT_SEED))
    assert {built[st] for st in sampled} == {1}


def test_check_all_builds_the_orbit_representatives_once(capsys):
    # Once per key and process: a second call builds a new universe of the same key, and no orbits.
    states.orbit_representatives.cache_clear()
    states._orbit_inputs.cache_clear()
    for _ in range(2):
        assert main(["check", "--sig", "a b", "all"]) == 0
        assert capsys.readouterr().out.count("result=PASS") == 7
    assert states.orbit_representatives.cache_info().misses == states._orbit_inputs.cache_info().misses == 1
    states.orbit_representatives(AB, "faithful", False, None)  # the key the calls built
    assert states.orbit_representatives.cache_info().misses == 1


@pytest.mark.parametrize(
    "op, flags, passes",
    [
        (RevisionOperator("dl"), [], 7),
        (RevisionOperator("cl"), ["--universe", "clf"], 6),
        (RevisionOperator("agm"), ["--consistent-only"], 13),
        (RevisionOperator("il", il_scope=0b0110), [], 7),
    ],
    ids=["dl", "cl", "agm", "il"],
)
def test_green_checks_and_classify_build_no_universe_state(op, flags, passes, generated, tmp_path, capsys):
    # Each check holds on the orbit representatives, and the inherent and immanent classes
    # come from them, so none of the 2-atom universe's states is built.
    path = tmp_path / "op.op"
    path.write_text(dump_operator(op))
    assert main(["check", "--operator", str(path), "--sig", "a b", *flags, "all"]) == 0
    assert capsys.readouterr().out.count("result=PASS") == passes
    state = tmp_path / "st.txt"
    state.write_text(dump_state(AB, EpistemicState(0b0010, 0b0110, RankedOrder((0b0010, 0b0100)))))
    assert main(["classify", "--state", str(state), "--operator", str(path)]) == 0
    assert capsys.readouterr().out.count("immanent=") == 16
    assert generated == []


def test_sampled_il_check_reads_only_its_sample_and_the_representatives(monkeypatch, tmp_path, capsys):
    # The immanent classes of an agm operator come from the 128 orbit
    # representatives of the 3-atom fa universe, not from its 545,835 states;
    # those of an il operator of scope 0xff from the 128 of its globally
    # consistent il universe, not from its 545,835 states.
    built = collections.Counter()
    bel_row_of = classify.bel_row_of

    def counting(op, st, sig):
        if not isinstance(op, TransitionTable):  # a table's own row read passes through
            built[st] += 1
        return bel_row_of(op, st, sig)

    monkeypatch.setattr(classify, "bel_row_of", counting)
    op = tmp_path / "agm.op"
    op.write_text(dump_operator(RevisionOperator("agm", UpdatePolicy("keep", "doc"))))
    argv = ["check", "--operator", str(op), "--sig", "a b c", "--universe", "fa", "--samples", "20", "IL2"]
    assert main(argv) == 1
    assert "CHECK IL2 op=agm(keep/doc) n=3 instances=20 result=FAIL" in capsys.readouterr().out
    sampled = sample_states(ABC, "fa", 20, random.Random(DEFAULT_SEED))
    reps = {st for st, _ in states.orbit_representatives(ABC, "fa", False, None)}
    assert set(built) <= set(sampled) | reps and reps <= set(built)

    built.clear()
    op.write_text("family: il\nil_scope: 0xff\n")
    argv = ["check", "--operator", str(op), "--sig", "a b c", "--global-consistency", "--samples", "20", "IL1", "IL2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    for pid in ("IL1", "IL2"):
        assert f"CHECK {pid} op=il(keep/keep) scope=255 n=3 instances=20 result=PASS" in out
    sampled = sample_states(ABC, "il", 20, random.Random(DEFAULT_SEED), True, 0xFF)
    reps = {st for st, _ in states.orbit_representatives(ABC, "il", True, 0xFF)}
    assert len(reps) == 128 and set(built) <= set(sampled) | reps and reps <= set(built)


def test_sampled_check_on_a_3atom_il_universe(monkeypatch, tmp_path, capsys):
    # The il branch of the sampler: every sampled state has the operator's scope.
    drawn = []
    sample = cli.sample_states
    monkeypatch.setattr(cli, "sample_states", lambda *args: drawn.extend(sample(*args)) or drawn)
    op = tmp_path / "il.op"
    op.write_text("family: il\nil_scope: 0x0f\n")
    assert main(["check", "--operator", str(op), "--sig", "a b c", "--samples", "20", "IL1", "IL2"]) == 0
    out = capsys.readouterr().out
    for pid in ("IL1", "IL2"):
        assert f"CHECK {pid} op=il(keep/keep) scope=15 n=3 instances=20 result=PASS" in out
    assert "# universe: il " in out and "sampled=True" in out
    assert len(drawn) == 20 and {st.scope for st in drawn} == {0x0F}


@pytest.mark.parametrize("flags, universe", [([], "fa"), (["--universe", "faithful"], "faithful")], ids=["default", "faithful"])
def test_agm_operator_file_checks_on_the_fa_universe_by_default(tmp_path, capsys, flags, universe):
    # On the faithful universe these fail at states that are not fa states.
    op = tmp_path / "agm.op"
    op.write_text(dump_operator(RevisionOperator("agm", UpdatePolicy("keep", "doc"))))
    code = main(["check", "--operator", str(op), "--sig", "a b", "--consistent-only", *flags, "CL2", "CL3", "IL2", "IL5"])
    out = capsys.readouterr().out
    assert f"# universe: {universe} " in out
    assert (code, out.count("result=PASS")) == ((0, 4) if universe == "fa" else (1, 0))


@pytest.mark.parametrize("flags, universe", [([], "clf"), (["--universe", "faithful"], "faithful")], ids=["default", "faithful"])
def test_cl_operator_file_checks_on_the_clf_universe_by_default(tmp_path, capsys, flags, universe):
    # A faithful state whose beliefs lie outside its scope is no clf state; there CL2 and CL3 fail.
    op = tmp_path / "cl.op"
    op.write_text("family: cl\n")
    code = main(["check", "--operator", str(op), "--sig", "a b", *flags, "all"])
    out = capsys.readouterr().out
    assert f"# universe: {universe} (global_consistency=False, sampled=False)\n" in out
    if universe == "clf":
        assert (code, out.count("result=PASS")) == (0, 6)
        for pid, instances in [("CL1", 2384), ("CL4", 2384), ("CL5", 38144), ("CL6", 38144)]:
            assert f"CHECK {pid} op=cl(keep/keep) n=2 instances={instances} result=PASS\n" in out
    else:
        assert (code, out.count("result=PASS")) == (1, 4)
        assert "CHECK CL2 op=cl(keep/keep) n=2 instances=48 result=FAIL\n" in out
        assert "CHECK CL3 op=cl(keep/keep) n=2 instances=16 result=FAIL\n" in out


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    """A keep/keep operator tabulated on the 2-atom faithful universe, as a file."""
    table = tabulate(RevisionOperator("dl"), enumerate_states(AB, "faithful"))
    path = tmp_path_factory.mktemp("ops") / "table.op"
    path.write_text(dump_operator(table))
    return table, str(path)


class TestExtensionalOperatorFile:
    def test_named_postulate_passes(self, table_file, capsys):
        _, op = table_file
        assert main(["check", "--operator", op, "--sig", "a b", "DL1"]) == 0
        assert "CHECK DL1 op=extensional(566 states) n=2 instances=9056 result=PASS" in capsys.readouterr().out

    def test_all_needs_named_ids(self, table_file, capsys):
        _, op = table_file
        assert main(["check", "--operator", op, "--sig", "a b", "all"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "ids must be named" in err

    def test_revise_prints_the_posterior(self, table_file, tmp_path, capsys):
        table, op = table_file
        st = table.states[100]
        state = tmp_path / "s.state"
        state.write_text(dump_state(AB, st))
        assert main(["revise", "--state", str(state), "--operator", op, "a"]) == 0
        post = table.mapping[(st, parse_models("a", AB))]
        assert post != st
        assert capsys.readouterr().out.endswith(f"# after a\n{dump_state(AB, post)}\n")


@pytest.mark.parametrize("family, kind", [("agm", "fa"), ("cl", "clf"), ("dl", "faithful")])
@pytest.mark.parametrize("command", ["check", "classify"])
def test_a_lookup_table_defaults_to_the_narrowest_kind_of_its_states(family, kind, command, tmp_path, capsys):
    # The table holds only its universe's states, so a wider default universe reaches states it misses.
    table = tabulate(RevisionOperator(family), enumerate_states(AB, kind))
    op, state = tmp_path / "t.op", tmp_path / "s.state"
    op.write_text(dump_operator(table))
    state.write_text(dump_state(AB, table.states[0]))
    argv = {
        "check": ["check", "--operator", str(op), "--sig", "a b", "CL1"],
        "classify": ["classify", "--state", str(state), "--operator", str(op)],
    }[command]
    runs = []
    for flags in ([], ["--universe", kind]):
        code = main(argv + flags)
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][0] in (0, 1)
    if command == "check":
        assert f"# universe: {kind} " in runs[0][1].out


@pytest.mark.parametrize("command", ["check", "classify"])
def test_a_lookup_table_whose_states_all_believe_something_defaults_to_global_consistency(command, tmp_path, capsys):
    # Tabulated on a globally consistent universe, the table misses every state with empty beliefs.
    table = tabulate(RevisionOperator("dl"), enumerate_states(AB, "faithful", global_consistency=True))
    op, state = tmp_path / "t.op", tmp_path / "s.state"
    op.write_text(dump_operator(table))
    state.write_text(dump_state(AB, table.states[0]))
    argv = {
        "check": ["check", "--operator", str(op), "--sig", "a b", "DL1"],
        "classify": ["classify", "--state", str(state), "--operator", str(op)],
    }[command]
    runs = []
    for flags in ([], ["--global-consistency"]):
        code = main(argv + flags)
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][0] == 0
    if command == "check":
        assert "# universe: faithful (global_consistency=True, sampled=False)" in runs[0][1].out
        assert "CHECK DL1 op=extensional(417 states) n=2 instances=6672 result=PASS" in runs[0][1].out


@pytest.mark.parametrize("operator", ["table", "policy"])
def test_global_consistency_stays_off_by_default_otherwise(operator, table_file, tmp_path, capsys):
    # A table holding a state with empty beliefs, and a policy operator, check the whole universe.
    path = table_file[1]
    if operator == "policy":
        path = tmp_path / "dl.op"
        path.write_text(dump_operator(RevisionOperator("dl")))
    assert main(["check", "--operator", str(path), "--sig", "a b", "DL1"]) == 0
    out = capsys.readouterr().out
    assert "# universe: faithful (global_consistency=False, sampled=False)" in out
    assert "n=2 instances=9056 result=PASS" in out


def _witness_blocks(out: str) -> list[str]:
    """The state-file blocks printed under the CHECK lines of a text report."""
    blocks: list[str] = []
    for line in out.splitlines(keepends=True):
        if line.startswith("sig: "):
            blocks.append("")
        if blocks and not line.startswith("CHECK "):
            blocks[-1] += line
    return blocks


@pytest.mark.parametrize(
    "policy, ids",
    [(UpdatePolicy("keep", "keep"), ["P9", "P12"]), (UpdatePolicy("keep", "doc"), ["FC", "SR"])],
    ids=["keep-keep-P9-P12", "keep-doc-FC-SR"],
)
def test_witnesses_load_as_the_counterexample_states(policy, ids, tmp_path, capsys):
    # Every printed witness is a state file that loads back as the verdict's state, in order.
    op = RevisionOperator("dl", policy)
    path = tmp_path / "op"
    path.write_text(dump_operator(op))
    argv = ["check", "--operator", str(path), "--sig", "a b", "--global-consistency", "--max-counterexamples", "50"]
    assert main(argv + ids) == 1
    loaded = [parse_state(block) for block in _witness_blocks(capsys.readouterr().out)]
    uni = enumerate_states(AB, "faithful", global_consistency=True)
    want = []
    for check_id in ids:
        check = verify.verify_equivalence if check_id in verify.THEOREM_IDS else verify.check_postulate
        want += [ce.state for ce in check(op, uni, check_id, max_counterexamples=50).counterexamples]
    assert len(want) > 50
    assert loaded == [(AB, st) for st in want]


class TestBadInput:
    """Malformed input ends in exit code 2 and one `error:` line, not a traceback."""

    def _fails_cleanly(self, argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err and "Traceback" not in err

    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["revise", "--state", "BAD"], "--state"),
            (["revise", "--state", "KARL", "--operator", "BAD"], "--operator"),
            (["check", "--operator", "BAD", "--sig", "a b", "DL1"], "--operator"),
            (["classify", "--state", "BAD"], "--state"),
            (["classify", "--state", "KARL", "--operator", "BAD"], "--operator"),
        ],
        ids=["revise-state", "revise-operator", "check-operator", "classify-state", "classify-operator"],
    )
    def test_unreadable_state_or_operator_file(self, argv, flag, missing, karl_files, tmp_path, capsys):
        # The error names the flag and the path that could not be read.
        bad = str(tmp_path / "nonexistent" if missing else tmp_path)
        argv = [{"BAD": bad, "KARL": karl_files[0]}.get(arg, arg) for arg in argv]
        reason = "No such file or directory" if missing else "Is a directory"
        self._fails_cleanly(argv, capsys, f"{flag} {bad}: {reason}")

    def test_state_file_that_is_not_text(self, tmp_path, capsys):
        state = tmp_path / "binary.state"
        state.write_bytes(b"\xff\xfe")
        self._fails_cleanly(["revise", "--state", str(state)], capsys, "not UTF-8 text")

    def test_malformed_operator_file(self, tmp_path, capsys):
        op = tmp_path / "bad.op"
        op.write_text("family: extensional\nsig: a\nstate x: bel 0 ; scope 0 ; order [0]\n")
        self._fails_cleanly(["check", "--operator", str(op), "--sig", "a", "all"], capsys, "line 3")

    @pytest.mark.parametrize(
        "argv, atoms",
        [
            (["check", "--operator", "OP", "--sig", "x", "DL1"], "x"),
            (["check", "--operator", "OP", "--sig", "a b", "DL1"], "a b"),
            (["check", "--operator", "OP", "--sig", "a b c", "DL1"], "a b c"),
            (["revise", "--state", "ST", "--operator", "OP", "a"], "a b"),
            (["classify", "--state", "ST", "--operator", "OP"], "a b"),
        ],
        ids=["check-other-atom", "check-2atom", "check-3atom", "revise", "classify"],
    )
    def test_operator_file_over_another_signature(self, argv, atoms, generated, monkeypatch, tmp_path, capsys):
        # A table over the one atom a is refused, naming its sig line, before any universe or sample is built.
        op, st = tmp_path / "t.op", tmp_path / "st.txt"
        op.write_text(dump_operator(tabulate(RevisionOperator("dl"), enumerate_states(Signature.of("a"), "faithful"))))
        st.write_text(dump_state(AB, EpistemicState(0b0010, 0b0110, RankedOrder((0b0010, 0b0100)))))
        generated.clear()
        sampled = []
        monkeypatch.setattr(cli, "sample_states", lambda *args: sampled.append(args) or [])
        argv = [{"OP": str(op), "ST": str(st)}.get(arg, arg) for arg in argv]
        self._fails_cleanly(argv, capsys, f"error: line 2: sig: a does not match the signature {atoms}\n")
        assert sampled == [] and generated == []

    def test_table_miss_is_one_line_without_quotes(self, tmp_path, capsys):
        table = tabulate(RevisionOperator("dl"), enumerate_states(AB, "faithful"))
        mapping = dict(table.mapping)
        del mapping[(table.states[0], 5)]
        path = tmp_path / "t.op"
        path.write_text(dump_operator(ExtensionalOperator(AB, table.states, mapping)))
        assert main(["check", "--operator", str(path), "--sig", "a b", "DL1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no table entry for state ") and err.count("\n") == 1 and "'" not in err

    def test_check_without_a_signature(self, capsys):
        self._fails_cleanly(["check", "all"], capsys, "error: check needs --sig")

    def test_unknown_id_is_refused_before_any_state_is_built(self, generated, monkeypatch, capsys):
        sampled = []
        monkeypatch.setattr(cli, "sample_states", lambda *args: sampled.append(args) or [])
        self._fails_cleanly(["check", "--sig", "a b c", "NOPE"], capsys, "unknown id 'NOPE'")
        self._fails_cleanly(["check", "--sig", "a b", "DL1", "NOPE"], capsys, "unknown id 'NOPE'")
        assert sampled == [] and generated == []

    def test_bad_signature_option(self, capsys):
        self._fails_cleanly(["check", "--sig", "A B", "all"], capsys, "'A'")

    def test_bad_signature_in_state_file(self, tmp_path, capsys):
        state = tmp_path / "bad.state"
        state.write_text("sig: A B\nbel: 00\nscope: 00\norder: [00]\n")
        self._fails_cleanly(["revise", "--state", str(state)], capsys, "'A'")

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--universe", "fa"], "--universe"),
            (["--global-consistency"], "--global-consistency"),
            (["--universe", "fa", "--global-consistency"], "--universe"),
        ],
        ids=["universe", "global-consistency", "both"],
    )
    def test_classify_universe_flags_above_two_atoms(self, karl_files, capsys, flags, needle):
        # A 3-atom state is classified without a universe, so these flags cannot apply.
        state, op = karl_files
        self._fails_cleanly(["classify", "--state", state, "--operator", op, *flags], capsys, needle)

    @pytest.mark.parametrize("universe", ["faithful", "clf", "fa"])
    def test_universe_flag_on_an_il_operator(self, tmp_path, capsys, universe):
        # An il operator has one universe, so a flag naming another cannot apply.
        op = tmp_path / "il.op"
        op.write_text("family: il\nil_scope: 3\n")
        argv = ["check", "--operator", str(op), "--sig", "a b", "--universe", universe, "IL1"]
        self._fails_cleanly(argv, capsys, f"--universe {universe}")

    @pytest.mark.parametrize(
        "argv",
        [["check", "--sig", "a b", "--samples", "50", "DL1"], ["enumerate", "--sig", "a b", "--samples", "7"]],
        ids=["check", "enumerate"],
    )
    def test_samples_on_an_enumerated_universe(self, argv, capsys):
        # Up to 2 atoms every state is enumerated, so a sample size cannot apply.
        self._fails_cleanly(argv, capsys, "--samples")

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["check", "--sig", "a b c", "--samples", "0", "P9"], "--samples"),
            (["check", "--sig", "a b c", "--samples", "-3", "P9"], "--samples"),
            (["check", "--sig", "a b", "--samples", "0", "P9"], "--samples"),
            (["enumerate", "--sig", "a b c", "--samples", "0"], "--samples"),
            (["check", "--sig", "a b c", "--samples", "20", "--max-counterexamples", "-1", "P9"], "--max-counterexamples"),
        ],
        ids=["check-samples-0", "check-samples-negative", "check-samples-2atom", "enumerate-samples-0", "check-cap-negative"],
    )
    def test_counts_below_their_least_value(self, argv, capsys, needle):
        # An empty sample would pass every check vacuously.
        self._fails_cleanly(argv, capsys, needle)

    def test_a_counterexample_cap_of_zero_reports_the_failure(self, capsys):
        assert main(["check", "--sig", "a b", "--max-counterexamples", "0", "P9"]) == 1
        out = capsys.readouterr().out
        assert "result=FAIL" in out and "# clause" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["revise", "--state", "s", "--consistent-only"],
            ["revise", "--state", "s", "--max-counterexamples", "3"],
            ["revise", "--state", "s", "--seed", "3"],
            ["classify", "--state", "s", "--consistent-only"],
            ["classify", "--state", "s", "--max-counterexamples", "3"],
            ["classify", "--state", "s", "--sig", "a b"],
            ["classify", "--state", "s", "--samples", "9"],
            ["classify", "--state", "s", "--seed", "3"],
            ["classify", "--state", "s", "--unbiased"],
            ["check", "--sig", "a b", "--unbiased", "all"],
            ["enumerate", "--sig", "a b", "--consistent-only"],
            ["enumerate", "--sig", "a b", "--max-counterexamples", "3"],
            ["enumerate", "--sig", "a b", "--unbiased"],
        ],
        ids=[
            "revise-consistent-only", "revise-max-counterexamples", "revise-seed",
            "classify-consistent-only", "classify-max-counterexamples", "classify-sig", "classify-samples",
            "classify-seed", "classify-unbiased", "check-unbiased",
            "enumerate-consistent-only", "enumerate-max-counterexamples", "enumerate-unbiased",
        ],
    )
    def test_options_a_command_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "--sig", "a b", "--count-only"], ["check", "--sig", "a b", "DL1"]],
        ids=["enumerate", "check"],
    )
    def test_universe_il_is_not_a_choice(self, argv, capsys):
        # The il scope comes only from an il operator file, which selects the il universe itself.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--universe", "il"])
        assert exc.value.code == 2
        assert "--universe: invalid choice: 'il'" in capsys.readouterr().err

    def test_enumerate_help_states_the_faithful_default(self, capsys):
        # `enumerate` takes no --operator, so its universe is faithful and keeps inconsistent beliefs
        # unless flagged; the option texts it shares with `check` and `classify` say so first.
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "state universe kind (default: faithful;" in text
        assert "exclude states with inconsistent beliefs (default: off;" in text


class TestRepro:
    @pytest.mark.parametrize("name", ["karl", "fig1", "lemmas"])
    def test_repro_passes(self, name, capsys):
        assert main(["repro", name]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out


class TestClassify:
    def test_report(self, karl_files, capsys):
        state, op = karl_files
        assert main(["classify", "--state", state, "--operator", op]) == 0
        out = capsys.readouterr().out
        assert "class 0: scope=" in out
        assert out.count("latent=") == 256

    @pytest.mark.parametrize("atoms, seed", [("a b", 3), ("a b c", 4)])
    def test_json_rows_carry_the_text_flags(self, atoms, seed, tmp_path, capsys):
        # Up to 2 atoms the report builds a universe, and so reads inherence and immanence.
        sig = Signature.of(atoms)
        path = tmp_path / "st.txt"
        path.write_text(dump_state(sig, sample_states(sig, "faithful", 1, random.Random(seed))[0]))
        assert main(["classify", "--state", str(path)]) == 0
        text = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert main(["classify", "--state", str(path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["checks"]
        names = ["scope", "latent", "reasonable"] + (["inherent", "immanent"] if sig.n_atoms == 2 else [])
        assert len(rows) == len(text) == 1 << sig.n_worlds
        for a, (line, row) in enumerate(zip(text, rows)):
            assert list(row) == sorted(["class", *names]) and row["class"] == a
            assert line == f"class {a}: " + " ".join(f"{n}={'y' if row[n] else 'n'}" for n in names)
        assert {row[n] for row in rows for n in ("scope", "latent")} == {True, False}


class TestEnumerate:
    def test_counts(self, capsys):
        assert main(["enumerate", "--sig", "a b", "--count-only"]) == 0
        assert "# states: 566" in capsys.readouterr().out
        assert (
            main(["enumerate", "--sig", "a b", "--global-consistency", "--count-only"]) == 0
        )
        assert "# states: 417" in capsys.readouterr().out
        assert main(["enumerate", "--sig", "a b c", "--samples", "7", "--count-only"]) == 0
        assert "# states: 7 (sampled)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, states, sampled",
        [(["a b"], 566, False), (["a b", "--global-consistency"], 417, False), (["a b c", "--samples", "7"], 7, True)],
        ids=["faithful", "global-consistency", "sampled"],
    )
    def test_count_only_json(self, flags, states, sampled, capsys):
        assert main(["enumerate", "--sig", *flags, "--count-only", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"] == [{"states": states, "sampled": sampled}]

    def test_dump(self, capsys):
        assert main(["enumerate", "--sig", "a", "--universe", "fa"]) == 0
        out = capsys.readouterr().out
        assert "sig: a" in out and "order:" in out
