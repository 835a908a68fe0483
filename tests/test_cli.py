"""Command line behavior: output, artifacts, exit codes."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from entpost.cli import EXIT_ABORT, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from entpost.codebook import (
    REFERENCE_RAW_FOURTH,
    codebook_to_document,
    reference_codebook,
    save_codebook,
)
from entpost.montecarlo import ExperimentSpec, aggregate_rows, read_rows_csv

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
    assert run_cli(capsys, "run", "--bob-msg", "101", "--seed", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "nonsense")[0] == EXIT_USAGE
    assert run_cli(capsys, "run", "--bits", "00", "--bob-msg", "1", "--sonai-msg", "1",
                   "--seed", "1")[0] == EXIT_USAGE
    for size in (["--n", "16"], ["--n", "8", "--lambda", "5"]):
        code, _, err = run_cli(capsys, "run", "--codebook", "reference", *size, "--seed", "1")
        assert code == EXIT_USAGE
        assert "codebook (n=8, lambda=4) does not match" in err


def test_message_mode(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--n", "16", "--lambda", "4", "--seed", "5",
        "--confidence-target", "0.99", "--bob-msg", "101", "--sonai-msg", "110",
    )
    assert code == EXIT_OK
    assert "bob_message: 101" in out
    assert "sonai_message: 110" in out
    assert out.count("block ") == 3


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
    code, _, err = run_cli(capsys, "codebook", "gen", "--n", "2", "--lambda", "4",
                           "--seed", "1", "--out", str(tmp_path / "never.json"))
    assert code == EXIT_USAGE
    assert "never exceeds" in err or "cannot hold" in err
    assert not (tmp_path / "never.json").exists()


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
    # stdout carries the same report after the seed line
    stdout_report = json.loads(out.split("\n", 1)[1])
    assert stdout_report == report


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
