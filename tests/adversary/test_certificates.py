"""Certificates serialize canonically and replay byte-for-byte."""

import pytest

from repro.adversary.certificates import (
    CERT_VERSION,
    CertificateError,
    ScheduleCertificate,
    certificate_from_daemon,
    config_digest,
    dump_certificate,
    load_certificate,
    loads_certificate,
    replay_certificate,
    verify_certificate,
    write_certificate,
)
from repro.adversary.search import make_search_daemon
from repro.core.daemon import make_daemon
from repro.core.simulator import Simulator
from repro.faults.scenarios import clock_split
from repro.reset import SDR
from repro.topology import ring
from repro.unison import Unison


def search_run(n=6, spec="greedy", max_steps=8):
    """Run an adversarial search and package it as a certificate."""
    sdr = SDR(Unison(ring(n)))
    initial = clock_split(sdr)
    daemon = make_search_daemon(spec)
    sim = Simulator(sdr, daemon, config=initial, seed=0,
                    backend="kernel")
    result = sim.run(max_steps=max_steps)
    cert = certificate_from_daemon(
        daemon,
        algorithm="unison",
        seed=0,
        initial=initial,
        final=sim.cfg,
        rounds=sim.rounds.completed,
        meta={"topology": "ring", "scenario": "split"},
    )
    return cert, initial, result


class TestSerialization:
    def test_round_trip_is_byte_identical(self):
        cert, _, _ = search_run()
        text = dump_certificate(cert)
        again = dump_certificate(loads_certificate(text))
        assert again == text

    def test_digest_is_stable(self):
        a, _, _ = search_run()
        b, _, _ = search_run()
        assert a.digest() == b.digest()

    def test_file_round_trip(self, tmp_path):
        cert, _, _ = search_run()
        path = tmp_path / "cert.jsonl"
        write_certificate(cert, path)
        loaded = load_certificate(path)
        assert dump_certificate(loaded) == dump_certificate(cert)
        assert loaded.selections == cert.selections

    def test_header_totals(self):
        cert, _, result = search_run()
        assert cert.version == CERT_VERSION
        assert cert.steps == len(cert.selections) == result.steps
        assert cert.moves == sum(len(s) for s in cert.selections)
        assert cert.moves == result.moves


class TestMalformed:
    def test_empty(self):
        with pytest.raises(CertificateError, match="empty"):
            loads_certificate("")

    def test_bad_version(self):
        cert, _, _ = search_run()
        cert.version = 99
        with pytest.raises(CertificateError, match="version"):
            loads_certificate(dump_certificate(cert))

    def test_steps_out_of_order(self):
        cert, _, _ = search_run()
        lines = dump_certificate(cert).splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(CertificateError, match="out of order"):
            loads_certificate("\n".join(lines))

    def test_step_count_mismatch(self):
        cert, _, _ = search_run()
        lines = dump_certificate(cert).splitlines()
        with pytest.raises(CertificateError, match="steps"):
            loads_certificate("\n".join(lines[:-1]))

    def test_garbage_header(self):
        with pytest.raises(CertificateError, match="malformed"):
            loads_certificate('{"version":1}\n')


class TestReplay:
    def test_replays_on_dict_backend(self):
        cert, initial, _ = search_run()
        sdr = SDR(Unison(ring(6)))
        report = replay_certificate(cert, sdr, initial, backend="dict")
        assert report.ok
        assert report.backend == "dict"
        assert report.moves == cert.moves
        assert report.rounds == cert.rounds
        assert report.final_hash == cert.final_hash

    def test_initial_hash_mismatch_raises(self):
        cert, _, _ = search_run()
        sdr = SDR(Unison(ring(6)))
        other = sdr.initial_configuration()
        assert config_digest(other) != cert.initial_hash
        with pytest.raises(CertificateError, match="initial configuration"):
            replay_certificate(cert, sdr, other)

    def test_verify_raises_on_tampered_moves(self):
        cert, initial, _ = search_run()
        cert.moves += 1
        sdr = SDR(Unison(ring(6)))
        with pytest.raises(CertificateError, match="diverged"):
            verify_certificate(cert, sdr, initial)

    def test_verify_raises_on_tampered_final_hash(self):
        cert, initial, _ = search_run()
        cert.final_hash = "0" * 64
        sdr = SDR(Unison(ring(6)))
        with pytest.raises(CertificateError, match="diverged"):
            verify_certificate(cert, sdr, initial)

    def test_scripted_replay_rejects_disabled_moves(self):
        cert, initial, _ = search_run()
        # Corrupt one selection so the script activates a process with
        # a rule that is not enabled at that point of the replay.
        cert.selections[0] = {0: "rule_bogus"}
        sdr = SDR(Unison(ring(6)))
        with pytest.raises(Exception):
            replay_certificate(cert, sdr, initial)


class TestConfigDigest:
    def test_digest_ignores_state_dict_order(self):
        sdr = SDR(Unison(ring(4)))
        cfg = sdr.initial_configuration()
        assert config_digest(cfg) == config_digest(cfg.copy())

    def test_digest_changes_with_state(self):
        sdr = SDR(Unison(ring(4)))
        a = sdr.initial_configuration()
        b = a.copy()
        b.set(0, "c", a.get(0, "c") + 1)
        assert config_digest(a) != config_digest(b)
