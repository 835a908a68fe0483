"""Command line behavior: output, artifacts, exit codes."""

import dataclasses
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from entpost import cli, codebook
from entpost.cli import (EXIT_ABORT, EXIT_IO, EXIT_OK, EXIT_USAGE, _config_from_args, build_parser,
                         main)
from entpost.codebook import (
    REFERENCE_RAW_FOURTH,
    codebook_to_document,
    reference_codebook,
    save_codebook,
)
from entpost.montecarlo import ExperimentSpec, StatsReport, aggregate_rows, read_rows_csv
from entpost.netsim import run_message
from entpost.protocol import ProtocolConfig, ProtocolViolationError, Transcript

from json_junk import junk_transcripts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_decodes_known_session(capsys):
    code, out, _ = run_cli(capsys, "run", "--n", "64", "--bits", "10", "--seed", "7")
    assert code == EXIT_OK
    assert "seed: 7" in out
    assert "status: decoded" in out
    assert "bob_bit: 1" in out
    assert "sonai_bit: 0" in out


def test_run_abort_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--n", "16", "--lambda", "4", "--bits", "10", "--seed", "7",
        "--strategy-sonai", "withhold:0", "--timeout", "4",
    )
    assert code == EXIT_ABORT
    assert "status: abort" in out
    assert "abort_reason: timeout" in out


def test_run_is_reproducible_bytes(tmp_path, capsys):
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code1, out1, _ = run_cli(
        capsys, "run", "--n", "8", "--lambda", "4", "--codebook", "reference",
        "--bits", "01", "--seed", "99", "--out", str(t1),
    )
    code2, out2, _ = run_cli(
        capsys, "run", "--n", "8", "--lambda", "4", "--codebook", "reference",
        "--bits", "01", "--seed", "99", "--out", str(t2),
    )
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert t1.read_bytes() == t2.read_bytes()


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ENTPOST_SEED", "1234")
    _, out, _ = run_cli(capsys, "run", "--n", "8", "--lambda", "4", "--bits", "00",
                        "--codebook", "reference")
    assert "seed: 1234" in out
    monkeypatch.setenv("ENTPOST_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "run", "--n", "8", "--lambda", "4", "--bits", "00")
    assert code == EXIT_USAGE
    assert "ENTPOST_SEED" in err


def test_fresh_seed_is_printed_and_varies(capsys, monkeypatch):
    monkeypatch.delenv("ENTPOST_SEED", raising=False)
    _, out1, _ = run_cli(capsys, "run", "--n", "8", "--lambda", "4", "--bits", "00",
                         "--codebook", "reference")
    _, out2, _ = run_cli(capsys, "run", "--n", "8", "--lambda", "4", "--bits", "00",
                         "--codebook", "reference")
    seed1 = int(out1.splitlines()[0].split(": ")[1])
    seed2 = int(out2.splitlines()[0].split(": ")[1])
    assert seed1 != seed2


def test_usage_errors(capsys):
    assert run_cli(capsys, "run", "--bits", "abc", "--seed", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "run", "--bits", "1", "--seed", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "run", "--strategy-bob", "sneaky", "--seed", "1")[0] == EXIT_USAGE
    code, _, err = run_cli(capsys, "run", "--strategy-bob", "withhold:-1", "--n", "8",
                           "--lambda", "4", "--seed", "1")
    assert code == EXIT_USAGE
    assert "withhold needs a non-negative integer count, got '-1'" in err
    assert run_cli(capsys, "run", "--bob-msg", "101", "--seed", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "nonsense")[0] == EXIT_USAGE
    assert run_cli(capsys, "run", "--bits", "00", "--bob-msg", "1", "--sonai-msg", "1",
                   "--seed", "1")[0] == EXIT_USAGE
    for size in (["--n", "16"], ["--n", "8", "--lambda", "5"]):
        code, _, err = run_cli(capsys, "run", "--codebook", "reference", *size, "--seed", "1")
        assert code == EXIT_USAGE
        assert "codebook (n=8, lambda=4) does not match" in err


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    # main builds its parser on its first call and keeps it: a replay, a
    # usage error and a montecarlo run on all defaults, made in turn on that
    # one parser, print and exit exactly as they do on a fresh parser each
    path = tmp_path / "t.jsonl"
    assert run_cli(capsys, "run", "--n", "8", "--lambda", "4", "--codebook", "reference",
                   "--seed", "3", "--out", str(path))[0] == EXIT_OK
    monkeypatch.setenv(cli.SEED_ENV_VAR, "5")
    calls = [
        ["replay", "--codebook", "reference", "--transcript", str(path), "--delta", "0.2"],
        ["montecarlo", "--n", "eight"],
        ["montecarlo"],
    ]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert len(built) == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert len(built) == 1 + len(calls)
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert "invalid int value: 'eight'" in shared[1][2]
    assert shared == fresh


def test_negative_seed_is_a_usage_error_naming_the_seed(tmp_path, capsys):
    book = tmp_path / "book.json"
    for argv in (["run", "--n", "8", "--lambda", "4"],
                 ["run", "--n", "8", "--lambda", "4", "--bob-msg", "1", "--sonai-msg", "0"],
                 ["montecarlo", "--n", "8", "--lambda", "4", "--trials", "2"],
                 ["codebook", "gen", "--n", "8", "--lambda", "4", "--out", str(book)]):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out, err) == (EXIT_USAGE, "", "error: seed must be non-negative, got -1\n")
    assert not book.exists()


def test_usage_errors_print_no_seed(tmp_path, capsys):
    # the seed line is printed once the run's config, spec or book is built,
    # so stdout stays empty when the arguments are refused
    book = tmp_path / "book.json"
    for argv in (
        ["montecarlo", "--mode", "honest", "--n", "0", "--lambda", "4", "--trials", "4"],
        ["montecarlo", "--mode", "honest", "--n", "8", "--lambda", "4", "--trials", "4",
         "--strategy-bob", "lie:1.0"],
        ["montecarlo", "--n", "8", "--lambda", "4", "--trials", "4", "--bits", "2"],
        ["run", "--n", "0"],
        ["run", "--n", "8", "--lambda", "4", "--bits", "abc"],
        ["run", "--codebook", "reference", "--n", "16"],
        ["run", "--bob-msg", "101"],
        ["run", "--bob-msg", "1", "--sonai-msg", "0", "--codebook", "reference"],
        ["codebook", "gen", "--n", "2", "--lambda", "4", "--out", str(book)],
        ["montecarlo", "--n", "8", "--lambda", "4", "--trials", "4", "--workers", "0"],
        ["montecarlo", "--codebook", "reference", "--n", "16", "--lambda", "4", "--trials", "4"],
        ["montecarlo", "--n", "8", "--lambda", "9", "--trials", "4"],
    ):
        code, out, err = run_cli(capsys, *argv, "--seed", "1")
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: ")


def test_message_mode(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--n", "16", "--lambda", "4", "--seed", "5",
        "--confidence-target", "0.99", "--bob-msg", "101", "--sonai-msg", "110",
    )
    assert code == EXIT_OK
    assert "bob_message: 101" in out
    assert "sonai_message: 110" in out
    assert out.count("block ") == 3


def test_message_mode_writes_one_transcript_per_block(tmp_path, capsys):
    # --out X writes X.block0, X.block1, ...: each block's record, as
    # run_message gives it at the same seed
    argv = ["run", "--bob-msg", "10", "--sonai-msg", "01", "--seed", "1"]
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "X"))
    assert code == EXIT_OK
    config = _config_from_args(build_parser().parse_args(argv), seed=1)
    outcomes, _ = run_message("10", "01", config)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["X.block0", "X.block1"]
    for index, outcome in enumerate(outcomes):
        written = (tmp_path / f"X.block{index}").read_bytes()
        assert written == outcome.transcript.to_jsonl().encode()


def test_message_mode_rejects_single_session_flags(tmp_path, capsys):
    events = tmp_path / "ev.jsonl"
    for flag, value in (("--codebook", str(tmp_path / "absent.json")),
                        ("--codebook", "reference"), ("--events-out", str(events))):
        code, _, err = run_cli(capsys, "run", "--bob-msg", "1", "--sonai-msg", "0",
                               flag, value, "--seed", "1")
        assert code == EXIT_USAGE
        assert f"error: {flag} and --bob-msg/--sonai-msg are mutually exclusive" in err
    assert not events.exists()


def test_message_block_that_fails_reports_the_terminal_reason(capsys):
    code, out, err = run_cli(capsys, "run", "--bob-msg", "10", "--sonai-msg", "01",
                             "--strategy-bob", "lie:1.0", "--seed", "1")
    assert code == EXIT_ABORT
    assert err == "error: message block 0 did not decode: no_consistent_entry\n"
    assert "bob_message" not in out


@pytest.mark.parametrize("command", ["run", "montecarlo"])
def test_every_config_field_has_a_flag(command):
    # every flag set off its default must reach its config field, so a field
    # without a flag, or a flag that is dropped, fails here
    args = build_parser().parse_args([
        command, "--n", "16", "--lambda", "4", "--noise", "0.05", "--delta", "0.25",
        "--confidence-target", "0.9", "--reveal-first", "sonai",
        "--policy-one-ahead", "2", "--timeout", "5",
    ])
    config = _config_from_args(args, seed=7)
    default = ProtocolConfig()
    assert config.seed == 7
    assert [f.name for f in dataclasses.fields(ProtocolConfig) if f.name != "seed"
            and getattr(config, f.name) == getattr(default, f.name)] == []


def test_codebook_gen_and_validate(tmp_path, capsys):
    path = tmp_path / "book.json"
    code, out, _ = run_cli(capsys, "codebook", "gen", "--n", "12", "--lambda", "4",
                           "--seed", "3", "--out", str(path))
    assert code == EXIT_OK
    assert "wrote codebook" in out
    code, out, _ = run_cli(capsys, "codebook", "validate", str(path))
    assert code == EXIT_OK
    assert out.startswith("valid:")


def test_codebook_gen_impossible_request_is_a_usage_error(tmp_path, capsys):
    # (2, 4) asks for more than any two orderings reach; (3, 2) is refused
    # only once the rejection limit runs out; an n or lambda of 0 at once
    for n, lam, message in (("2", "4", "never exceeds"), ("3", "2", "cannot hold"),
                            ("0", "4", "n must be at least 1"),
                            ("8", "0", "lam must be at least 1")):
        code, _, err = run_cli(capsys, "codebook", "gen", "--n", n, "--lambda", lam,
                               "--seed", "1", "--out", str(tmp_path / "never.json"))
        assert code == EXIT_USAGE
        assert message in err
        assert not (tmp_path / "never.json").exists()


def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a request too large for the machine exits 2 with one error line, and
    # no partial file; an empty MemoryError still names what ran out
    def exhausted(*args, **kwargs):
        raise MemoryError()

    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (400000000,)")

    monkeypatch.setattr(codebook, "generate_codebook", exhausted)
    monkeypatch.setattr(cli, "run_experiment", unable)
    for argv, line in (
        (["codebook", "gen", "--n", "400000000", "--lambda", "16", "--seed", "1",
          "--out", str(tmp_path / "big.json")], "error: out of memory\n"),
        (["montecarlo", "--trials", "4", "--seed", "1", "--out", str(tmp_path / "X")],
         "error: Unable to allocate 2.98 GiB for an array with shape (400000000,)\n"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", line)
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_codebook_validate_reports_defects(tmp_path, capsys):
    doc = json.loads(json.dumps({
        "version": 1, "n": 8, "lambda": 4,
        "entries": [
            {"bits": [0, 0], "s_j": [2, 6, 7, 1, 5, 8, 4, 3]},
            {"bits": [1, 1], "s_j": [1, 3, 7, 5, 2, 4, 8, 6]},
            {"bits": [0, 1], "s_j": [6, 1, 2, 4, 3, 7, 5, 8]},
            {"bits": [1, 0], "s_j": list(REFERENCE_RAW_FOURTH)},
        ],
    }))
    path = tmp_path / "defective.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "codebook", "validate", str(path))
    assert code == EXIT_ABORT
    assert "duplicate-label" in out
    assert "missing-label" in out


def test_codebook_validate_unreadable_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli(capsys, "codebook", "validate", str(missing))[0] == EXIT_IO
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{")
    assert run_cli(capsys, "codebook", "validate", str(garbage))[0] == EXIT_IO
    # malformed numbers: each is unreadable data, never a crash or a coercion
    ref = codebook_to_document(reference_codebook())
    coerced = json.loads(json.dumps(ref))
    coerced["n"] = 8.9
    coerced["entries"][0]["s_j"][:2] = [2.7, "6"]
    extra_bit = json.loads(json.dumps(ref))
    extra_bit["entries"][3]["bits"] = [True, False, 7]
    texts = [
        json.dumps({**ref, "n": float("inf")}),
        json.dumps(coerced),
        json.dumps(extra_bit),
        json.dumps(ref).replace('"lambda": 4', '"lambda": ' + "4" * 5000),
    ]
    garbage.write_bytes(b"\xff\xfe{}")
    assert run_cli(capsys, "codebook", "validate", str(garbage))[0] == EXIT_IO
    for text in texts:
        garbage.write_text(text)
        code, _, err = run_cli(capsys, "codebook", "validate", str(garbage))
        assert code == EXIT_IO, text[:80]
        assert err.startswith("error: ")


def test_codebook_reference_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "codebook", "reference")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 8
    assert doc["lambda"] == 4
    path = tmp_path / "ref.json"
    assert run_cli(capsys, "codebook", "reference", "--out", str(path))[0] == EXIT_OK
    assert run_cli(capsys, "codebook", "validate", str(path))[0] == EXIT_OK


def test_replay_consistent_and_tampered(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    code, _, _ = run_cli(
        capsys, "run", "--n", "8", "--lambda", "4", "--codebook", "reference",
        "--bits", "10", "--seed", "42", "--confidence-target", "0.9", "--out", str(path),
    )
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "replay", "--codebook", "reference",
                           "--transcript", str(path), "--confidence-target", "0.9")
    assert code == EXIT_OK
    assert "terminal: consistent" in out

    # flip one revealed outcome: the recomputed decode no longer matches
    lines = path.read_text().splitlines()
    first = json.loads(lines[0])
    first["outcome"] = "-" if first["outcome"] == "+" else "+"
    lines[0] = json.dumps(first, separators=(",", ":"))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "replay", "--codebook", "reference",
                           "--transcript", str(tampered), "--confidence-target", "0.9")
    assert code == EXIT_IO
    assert "MISMATCH" in out

    # relabel sonai's reveals as the sender's: only receivers may reveal
    relabelled = tmp_path / "relabelled.jsonl"
    relabelled.write_text(path.read_text().replace('"party":"sonai"', '"party":"alice"'))
    code, _, err = run_cli(capsys, "replay", "--codebook", "reference",
                           "--transcript", str(relabelled), "--confidence-target", "0.9")
    assert code == EXIT_IO
    assert "alice is not a receiver" in err


def test_replay_truncated_transcript_reports_prefix(tmp_path, capsys):
    path = tmp_path / "full.jsonl"
    run_cli(
        capsys, "run", "--n", "8", "--lambda", "4", "--codebook", "reference",
        "--bits", "11", "--seed", "5", "--out", str(path),
    )
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
    code, out, _ = run_cli(capsys, "replay", "--codebook", "reference",
                           "--transcript", str(cut))
    assert code == EXIT_OK
    assert "replay_status: undecided" in out
    assert "confidence:" in out
    assert "terminal: absent" in out


def test_replay_rejects_duplicate_reveals(tmp_path, capsys):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"round":1,"party":"bob","position":1,"outcome":"+"}\n'
        '{"round":2,"party":"bob","position":1,"outcome":"-"}\n'
    )
    code, _, err = run_cli(capsys, "replay", "--codebook", "reference",
                           "--transcript", str(path))
    assert code == EXIT_IO
    assert "duplicate" in err
    # malformed numbers are rejected as unreadable data, not crashed on or coerced
    reveal = '{"round":1,"party":"bob","position":1,"outcome":"+"}\n'
    terminal = '{"status":"decoded","bob_bit":0,"sonai_bit":0,"abort_reason":null,"confidence":%s}'
    for text in (
        '{"round":1,"party":"bob","position":Infinity,"outcome":"+"}',
        reveal + terminal % ("9" * 401),
        '{"round":1.9,"party":"bob","position":"2","outcome":"+"}',  # read as round 1, position 2
        '{"round":1,"party":"bob","position":3.7,"outcome":"+"}',
        '{"round":1,"party":"bob","position":%s,"outcome":"+"}' % ("1" * 5000),
    ):
        path.write_text(text + "\n")
        code, _, err = run_cli(capsys, "replay", "--codebook", "reference",
                               "--transcript", str(path))
        assert code == EXIT_IO, text[:80]
        assert err.startswith("error: line ")
    path.write_bytes(reveal.encode() + b"\xff\n")
    assert run_cli(capsys, "replay", "--codebook", "reference",
                   "--transcript", str(path))[0] == EXIT_IO


def test_replay_position_range_errors_name_the_line(tmp_path, capsys):
    path = tmp_path / "range.jsonl"
    reveal = '{"round":%d,"party":"%s","position":%s,"outcome":"+"}\n'
    for position in ("0", "-1", "9", str(10**30)):  # the reference book has n=8
        path.write_text(reveal % (1, "bob", "1") + "\n" + reveal % (2, "sonai", position))
        code, out, err = run_cli(capsys, "replay", "--codebook", "reference",
                                 "--transcript", str(path))
        assert code == EXIT_IO, position
        assert out == ""
        assert err == f"error: line 3: reveal position out of range: {position}\n"


def test_deeply_nested_json_is_unreadable_data(tmp_path, capsys):
    # nesting past the parser's recursion limit exits 3 with an error line,
    # not with a RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    transcript = tmp_path / "deep.jsonl"
    transcript.write_text('{"round":1,"party":"bob","position":1,"outcome":"+"}\n'
                          '{"round":' + "[" * 200_000 + "\n")
    for argv in (("replay", "--codebook", "reference", "--transcript", str(transcript)),
                 ("replay", "--codebook", str(deep), "--transcript", str(transcript)),
                 ("codebook", "validate", str(deep))):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_IO, argv
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err[:200]
    assert run_cli(capsys, "replay", "--codebook", "reference",
                   "--transcript", str(transcript))[2].startswith("error: line 2: not valid JSON")


def test_replay_echoes_timeout_aborts(tmp_path, capsys):
    path = tmp_path / "abort.jsonl"
    code, _, _ = run_cli(
        capsys, "run", "--n", "8", "--lambda", "4", "--codebook", "reference",
        "--bits", "10", "--seed", "42", "--strategy-sonai", "withhold:2",
        "--timeout", "4", "--out", str(path),
    )
    assert code == EXIT_ABORT
    code, out, _ = run_cli(capsys, "replay", "--codebook", "reference",
                           "--transcript", str(path))
    assert code == EXIT_OK
    assert "echoed" in out
    # an abort line that also carries bits contradicts itself: not echoed
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace('"bob_bit":null,"sonai_bit":null', '"bob_bit":0,"sonai_bit":1')
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "replay", "--codebook", "reference",
                             "--transcript", str(path))
    assert code == EXIT_IO
    assert "echoed" not in out
    assert "abort terminal line must have" in err


def test_replay_refuses_bad_flags_before_reading_the_transcript(tmp_path, capsys):
    junk = tmp_path / "junk.jsonl"
    junk.write_text("not json\n")
    for transcript in (junk, tmp_path / "missing.jsonl"):
        for flag in (("--noise", "0.9"), ("--delta", "0.7"), ("--confidence-target", "1.5")):
            code, out, err = run_cli(capsys, "replay", "--codebook", "reference",
                                     "--transcript", str(transcript), *flag)
            assert (code, out) == (EXIT_USAGE, ""), (transcript.name, flag)
            assert err.startswith("error: ") and "line" not in err


def test_replay_splits_lines_as_the_parser_does(tmp_path, capsys):
    # the file is streamed, and still splits and numbers its lines as
    # str.splitlines splits the whole text: form feeds, NEL, line and
    # paragraph separators, CRLF and blank lines all count
    path = tmp_path / "t.jsonl"
    run_cli(capsys, "run", "--n", "8", "--lambda", "4", "--codebook", "reference",
            "--bits", "01", "--seed", "3", "--out", str(path))
    lines = path.read_text().splitlines()
    canonical = run_cli(capsys, "replay", "--codebook", "reference", "--transcript", str(path))
    assert canonical[0] == EXIT_OK
    breaks = ["\f", "\r\n", "\x85", "\n\n", "\u2028", "\n  \n", "\u2029"]
    text = "".join(line + breaks[k % len(breaks)] for k, line in enumerate(lines))
    bad = '{"round":12,"party":"bob","position":9,"outcome":"+"}'
    faults = {text.replace(lines[k], line): (k, line, message) for k, line, message in
              ((11, bad, "reveal position out of range: 9"), (9, "{", "not valid JSON"))}
    for variant in (text, *faults):
        path.write_bytes(variant.encode("utf-8"))
        got = run_cli(capsys, "replay", "--codebook", "reference", "--transcript", str(path))
        try:
            Transcript.from_jsonl(io.StringIO(variant), 8)
            expected = canonical
        except ProtocolViolationError as exc:
            expected = (EXIT_IO, "", f"error: {exc}\n")
        assert got == expected
        if variant in faults:
            k, line, message = faults[variant]
            number = variant.splitlines().index(line) + 1
            assert number > k + 1  # the blank lines before it count
            assert got[2].startswith(f"error: line {number}: {message}")


def test_replay_of_non_utf8_bytes_after_a_valid_prefix(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    reveal = '{"round":%d,"party":"%s","position":%d,"outcome":"+"}\n'
    prefix = "".join(reveal % (r, ("bob", "sonai")[r % 2 == 0], (r + 1) // 2) for r in range(1, 6))
    for tail in (b"\xff\n", b'{"round":6,"party":"sonai","position":3,"outcome":"\xe2\x28"}\n'):
        path.write_bytes(prefix.encode() + tail)
        code, out, err = run_cli(capsys, "replay", "--codebook", "reference",
                                 "--transcript", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith("error: transcript is not UTF-8 text: 'utf-8' codec can't decode")


@st.composite
def well_typed_transcripts(draw):
    """Records of the right types whose values may still break the rules:
    positions out of range, repeats, any terminal."""
    lines = [
        {"round": r, "party": draw(st.sampled_from(["bob", "sonai"])),
         "position": draw(st.integers(min_value=0, max_value=9)),
         "outcome": draw(st.sampled_from(["+", "-"]))}
        for r in range(1, draw(st.integers(min_value=0, max_value=12)) + 1)
    ]
    if draw(st.booleans()):
        status = draw(st.sampled_from(["decoded", "undecided", "abort"]))
        lines.append({
            "status": status,
            "bob_bit": draw(st.sampled_from([0, 1, None])),
            "sonai_bit": draw(st.sampled_from([0, 1, None])),
            "confidence": draw(st.sampled_from([0.0, 0.5, 1.0])),
            "abort_reason": draw(st.sampled_from(["no_consistent_entry", "timeout"]))
            if status == "abort" else None,
        })
    return "\n".join(json.dumps(line) for line in lines)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(junk_transcripts(), well_typed_transcripts()))
def test_replay_of_junk_transcripts_exits_0_1_or_3(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "junk.jsonl"
    path.write_text(text, encoding="utf-8")
    code = main(["replay", "--codebook", "reference", "--transcript", str(path)])
    assert code in (EXIT_OK, EXIT_ABORT, EXIT_IO)


def test_montecarlo_writes_rows_and_report(tmp_path, capsys):
    base = tmp_path / "exp"
    code, out, _ = run_cli(
        capsys, "montecarlo", "--mode", "soundness", "--n", "8", "--lambda", "4",
        "--codebook", "reference", "--bits", "00", "--trials", "200", "--seed", "1",
        "--out", str(base),
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "exp.json").read_text())
    assert report["trials"] == 200
    assert "11" in report["survival_rates"]
    assert "4" in report["survival_by_distance"]
    csv_text = (tmp_path / "exp.csv").read_text()
    assert csv_text.count("\n") == 201  # header plus one row per trial
    # stdout carries the same report after the seed line, byte for byte
    assert out.split("\n", 1)[1] == (tmp_path / "exp.json").read_text()


@pytest.mark.parametrize("out", [True, False])
def test_montecarlo_serializes_its_report_once(tmp_path, capsys, monkeypatch, out):
    texts = []
    serialize = StatsReport.to_json_text
    monkeypatch.setattr(StatsReport, "to_json_text", lambda report: texts.append(serialize(report))
                        or texts[-1])
    argv = ["montecarlo", "--mode", "honest", "--n", "8", "--lambda", "4", "--codebook",
            "reference", "--trials", "3", "--seed", "2"]
    code, stdout, _ = run_cli(capsys, *argv, *(["--out", str(tmp_path / "r")] if out else []))
    assert code == EXIT_OK
    assert len(texts) == 1
    assert stdout == "seed: 2\n" + texts[0]


def test_montecarlo_soundness_cycling_bits_writes_rows_and_report(tmp_path, capsys):
    base = tmp_path / "sb"
    code, _, _ = run_cli(
        capsys, "montecarlo", "--mode", "soundness", "--n", "8", "--lambda", "4",
        "--codebook", "reference", "--trials", "8", "--seed", "1", "--out", str(base),
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "sb.json").read_text())
    with open(tmp_path / "sb.csv", newline="", encoding="utf-8") as fp:
        rows = read_rows_csv(fp)
    spec = ExperimentSpec(mode="soundness", n=8, lam=4, codebook="reference", trials=8, seed=1)
    assert aggregate_rows(spec, rows).to_json_obj() == report
    # each rate counts only the trials in which that entry was a wrong one
    for bits, rate in report["survival_rates"].items():
        present = [row[f"survived_{bits}"] for row in rows
                   if f"{row['truth_bob']}{row['truth_sonai']}" != bits]
        assert all(value is not None for value in present)
        assert rate == sum(present) / len(present) == sum(present) / 6


def test_montecarlo_refuses_strategies_outside_session_mode(tmp_path, capsys):
    # only session mode plays strategies; pacing flags still apply elsewhere
    base = tmp_path / "refused"
    for mode in ("honest", "soundness"):
        for flag, text in (("--strategy-bob", "lie:1.0"), ("--strategy-sonai", "withhold:2"),
                           ("--strategy-bob", "batchdump")):
            code, _, err = run_cli(capsys, "montecarlo", "--mode", mode, "--n", "8",
                                   "--lambda", "4", "--trials", "4", "--seed", "1",
                                   flag, text, "--out", str(base))
            assert code == EXIT_USAGE
            assert f"plays only in session mode, not in {mode} mode" in err
    assert not list(tmp_path.iterdir())
    code, _, _ = run_cli(capsys, "montecarlo", "--mode", "honest", "--n", "8", "--lambda", "4",
                         "--trials", "4", "--seed", "1", "--policy-one-ahead", "2",
                         "--timeout", "5", "--out", str(base))
    assert code == EXIT_OK


def test_montecarlo_run_events_out(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    code, _, _ = run_cli(
        capsys, "run", "--n", "8", "--lambda", "4", "--codebook", "reference",
        "--bits", "00", "--seed", "2", "--events-out", str(events),
    )
    assert code == EXIT_OK
    lines = [json.loads(line) for line in events.read_text().splitlines()]
    assert any(e["kind"] == "reveal" for e in lines)
    assert any(e["kind"] == "delivery" for e in lines)


# -- pinned replay output -----------------------------------------------------

REPLAY_SIZES = {"n8-reference": ("8", "4", "reference"), "n32": ("32", "8", None)}
REPLAY_NOISE = {"noiseless": (), "noisy": ("--noise", "0.05", "--delta", "0.25")}
REPLAY_STRATEGIES = {
    "honest": (),
    "withhold-bob": ("--strategy-bob", "withhold:3"),
    "withhold-sonai": ("--strategy-sonai", "withhold:3"),
    "batchdump-bob": ("--strategy-bob", "batchdump"),
    "batchdump-sonai": ("--strategy-sonai", "batchdump"),
}


def record_session(tmp_path, capsys, strategy, opener, noise, size):
    """(transcript text, replay flags) of one session run through the CLI; a
    generated book is written first, so replay can read it back."""
    n, lam, book = REPLAY_SIZES[size]
    if book is None:
        book = str(tmp_path / f"{size}.json")
        run_cli(capsys, "codebook", "gen", "--n", n, "--lambda", lam, "--seed", "7", "--out", book)
    path = tmp_path / "session.jsonl"
    run_cli(capsys, "run", "--n", n, "--lambda", lam, "--codebook", book, "--bits", "10",
            "--seed", "29", "--reveal-first", opener, *REPLAY_NOISE[noise],
            *REPLAY_STRATEGIES[strategy], "--out", str(path))
    return path.read_text(encoding="utf-8"), ("--codebook", book, *REPLAY_NOISE[noise])


def replay_texts(tmp_path, capsys, case):
    """(transcript text, replay flags) for each replay of a pinned case."""
    kind, *session = case.split("/")
    if kind == "rejected":
        flags = ("--codebook", "reference")
        reveal = '{"round":%d,"party":"%s","position":%s,"outcome":"+"}\n'
        terminal = ('{"status":"undecided","bob_bit":null,"sonai_bit":null,'
                    '"confidence":0.5,"abort_reason":null}\n')
        texts = {
            "position-0": reveal % (1, "bob", "0"),
            "position-minus-1": reveal % (1, "sonai", "-1"),
            "position-n-plus-1": reveal % (1, "bob", "1") + reveal % (2, "sonai", "9"),
            "position-huge": reveal % (1, "bob", "1") + reveal % (2, "bob", str(10**30)),
            "duplicate": reveal % (1, "sonai", "2") + reveal % (2, "sonai", "2"),
            "round-gap": reveal % (1, "bob", "1") + reveal % (3, "sonai", "1"),
            "alice": reveal % (1, "alice", "1"),
            "after-terminal": terminal + reveal % (1, "bob", "1"),
            "two-terminals": terminal + terminal,
            "bom": "\ufeff" + reveal % (1, "bob", "1"),
            "trailing-data": (reveal % (1, "bob", "1")).rstrip("\n") + " {}\n",
            "two-records-on-one-line": (reveal % (1, "bob", "1")).rstrip("\n") + reveal % (2, "sonai", "1"),
        }
        return [(texts[session[0]], flags)]
    text, flags = record_session(tmp_path, capsys, *session)
    lines = text.splitlines(keepends=True)
    if kind == "prefixes":
        return [("".join(lines[:k]), flags) for k in range(len(lines) + 1)]
    if kind == "tampered-terminal":
        last = json.loads(lines[-1])
        last["bob_bit"] = 1 - last["bob_bit"]
        lines[-1] = json.dumps(last, separators=(",", ":")) + "\n"
    if kind == "padded":  # whitespace JSON allows, CRLF line ends and blank lines
        lines = [f" \t{line.rstrip()}\t \r\n\n" for line in lines]
    if kind == "fairness-abort":  # as a receiver that refused an early reveal would close it
        lines[-1] = ('{"status":"abort","bob_bit":null,"sonai_bit":null,"confidence":0.0,'
                     '"abort_reason":"fairness_violation"}\n')
    return [("".join(lines), flags)]


def replay_outputs(tmp_path, capsys, case):
    """(exit code, stdout) of each replay of a pinned case."""
    path = tmp_path / "replayed.jsonl"
    outputs = []
    for text, flags in replay_texts(tmp_path, capsys, case):
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "replay", *flags, "--transcript", str(path))
        outputs.append((code, out))
    return outputs


PINNED_REPLAY_CASES = (
    [f"complete/honest/{opener}/{noise}/{size}"
     for opener in ("bob", "sonai") for noise in REPLAY_NOISE for size in REPLAY_SIZES]
    + ["prefixes/honest/bob/noiseless/n8-reference", "prefixes/honest/sonai/noisy/n32"]
    + [f"complete/{strategy}/{opener}/{noise}/n8-reference"
       for strategy in ("withhold-bob", "withhold-sonai", "batchdump-bob", "batchdump-sonai")
       for opener in ("bob", "sonai") for noise in REPLAY_NOISE]
    + ["padded/honest/sonai/noisy/n8-reference"]
    + [f"fairness-abort/batchdump-{cheat}/bob/noiseless/n8-reference" for cheat in ("bob", "sonai")]
    + ["tampered-terminal/honest/bob/noiseless/n8-reference", "tampered-terminal/honest/sonai/noisy/n32"]
)
PINNED_REJECTIONS = [
    f"rejected/{name}" for name in (
        "position-0", "position-minus-1", "position-n-plus-1", "position-huge", "duplicate",
        "round-gap", "alice", "after-terminal", "two-terminals", "bom", "trailing-data",
        "two-records-on-one-line",
    )
]

# Recorded before replay moved to the columnar parse and the one-pass fold:
# sha256 over the exit code and stdout of each replay of the case.
PINNED_REPLAY_DIGESTS = {
    "complete/honest/bob/noiseless/n8-reference": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/honest/bob/noiseless/n32": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/honest/bob/noisy/n8-reference": "a3ad85f789c04885d87ed496b80cc2f1e857bf42d1c6cb7569932b8a5b86c4b4",
    "complete/honest/bob/noisy/n32": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/honest/sonai/noiseless/n8-reference": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/honest/sonai/noiseless/n32": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/honest/sonai/noisy/n8-reference": "a3ad85f789c04885d87ed496b80cc2f1e857bf42d1c6cb7569932b8a5b86c4b4",
    "complete/honest/sonai/noisy/n32": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "prefixes/honest/bob/noiseless/n8-reference": "dffb567c86d5ec9d358ee4bd7cd039bc44ff3eb82ad05d3219bf7f8cbf3d4f43",
    "prefixes/honest/sonai/noisy/n32": "86f9c808474530eb3b2aab3df02ada2efaa97f914f9a5f13bbc70d73edf90df6",
    "complete/withhold-bob/bob/noiseless/n8-reference": "4d72c6a8e6c5ec47d4fe6dd9c972b81ab2b23caeb97d814f044c764436b27a0e",
    "complete/withhold-bob/bob/noisy/n8-reference": "a074b6975e02aea8e8b977ddd1018b3e159534fd68bce96e0c8796b684968df2",
    "complete/withhold-bob/sonai/noiseless/n8-reference": "4d72c6a8e6c5ec47d4fe6dd9c972b81ab2b23caeb97d814f044c764436b27a0e",
    "complete/withhold-bob/sonai/noisy/n8-reference": "55d50584782dec2f2c366993a1a851e925e8ea018cfa96b309c24a1c2d936019",
    "complete/withhold-sonai/bob/noiseless/n8-reference": "4d72c6a8e6c5ec47d4fe6dd9c972b81ab2b23caeb97d814f044c764436b27a0e",
    "complete/withhold-sonai/bob/noisy/n8-reference": "a074b6975e02aea8e8b977ddd1018b3e159534fd68bce96e0c8796b684968df2",
    "complete/withhold-sonai/sonai/noiseless/n8-reference": "4d72c6a8e6c5ec47d4fe6dd9c972b81ab2b23caeb97d814f044c764436b27a0e",
    "complete/withhold-sonai/sonai/noisy/n8-reference": "a074b6975e02aea8e8b977ddd1018b3e159534fd68bce96e0c8796b684968df2",
    "complete/batchdump-bob/bob/noiseless/n8-reference": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/batchdump-bob/bob/noisy/n8-reference": "a3ad85f789c04885d87ed496b80cc2f1e857bf42d1c6cb7569932b8a5b86c4b4",
    "complete/batchdump-bob/sonai/noiseless/n8-reference": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/batchdump-bob/sonai/noisy/n8-reference": "a3ad85f789c04885d87ed496b80cc2f1e857bf42d1c6cb7569932b8a5b86c4b4",
    "complete/batchdump-sonai/bob/noiseless/n8-reference": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/batchdump-sonai/bob/noisy/n8-reference": "a3ad85f789c04885d87ed496b80cc2f1e857bf42d1c6cb7569932b8a5b86c4b4",
    "complete/batchdump-sonai/sonai/noiseless/n8-reference": "a55e2ee609d48841ad9e43c7df09bdb6cf219744fcdef4d1a8112247a318444b",
    "complete/batchdump-sonai/sonai/noisy/n8-reference": "a3ad85f789c04885d87ed496b80cc2f1e857bf42d1c6cb7569932b8a5b86c4b4",
    "padded/honest/sonai/noisy/n8-reference": "a3ad85f789c04885d87ed496b80cc2f1e857bf42d1c6cb7569932b8a5b86c4b4",
    "fairness-abort/batchdump-bob/bob/noiseless/n8-reference": "66dad9d4424139a8a5b9b0753590840f1968f6d0116580c3ac1f967fdd52cd69",
    "fairness-abort/batchdump-sonai/bob/noiseless/n8-reference": "66dad9d4424139a8a5b9b0753590840f1968f6d0116580c3ac1f967fdd52cd69",
    "tampered-terminal/honest/bob/noiseless/n8-reference": "d2503c71db84e7dd185491e0ba177f9c269bb4411427b5d626b7798f017c1029",
    "tampered-terminal/honest/sonai/noisy/n32": "d2503c71db84e7dd185491e0ba177f9c269bb4411427b5d626b7798f017c1029",
}


@pytest.mark.parametrize("case", PINNED_REPLAY_CASES + PINNED_REJECTIONS)
def test_replay_bytes_are_pinned(tmp_path, capsys, case):
    outputs = replay_outputs(tmp_path, capsys, case)
    if case in PINNED_REJECTIONS:  # stderr wording may change, the exit code may not
        assert [code for code, _ in outputs] == [EXIT_IO]
        return
    record = "\x00".join(f"{code}\n{out}" for code, out in outputs)
    assert hashlib.sha256(record.encode()).hexdigest() == PINNED_REPLAY_DIGESTS[case]
