"""Command line surface: flows, file formats, and the exit code contract."""

import csv
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import TINY_CATALOG_TEXT, TINY_PARAMS
from wzkit import builder, cli, codec
from wzkit.builder import load_code
from wzkit.codec import CSV_COLUMNS, encode
from wzkit.gf2 import BitMatrix, BitVector, write_matrix


def word_line(vec):
    return "".join(str(b) for b in vec.to_list())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Catalog file, built code directory, and a two-word source file."""
    root = tmp_path_factory.mktemp("cli")
    catalog = root / "catalog.txt"
    catalog.write_text(TINY_CATALOG_TEXT)
    code_dir = root / "tiny-code"
    rc = cli.main([
        "build", "--n", str(TINY_PARAMS.n), "--m", str(TINY_PARAMS.m),
        "--k1", str(TINY_PARAMS.k1), "--k2", str(TINY_PARAMS.k2),
        "--dist", "tiny", "--catalog", str(catalog),
        "--seed", "5", "--out", str(code_dir),
    ])
    assert rc == 0
    rng = random.Random(1)
    sources = root / "sources.txt"
    sources.write_text("".join(
        f"{rng.getrandbits(TINY_PARAMS.n):0{TINY_PARAMS.n}b}\n"
        for _ in range(2)))
    return root


class TestBuild:
    def test_directory_layout(self, workdir):
        assert (workdir / "tiny-code" / "manifest.json").is_file()

    def test_unknown_profile_is_usage_error(self, workdir, tmp_path, capsys):
        rc = cli.main([
            "build", "--n", "96", "--m", "92", "--k1", "20", "--k2", "60",
            "--dist", "nope",
            "--catalog", str(workdir / "catalog.txt"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert "unknown degree profile" in capsys.readouterr().err

    def test_invalid_geometry_exits_two(self, workdir, tmp_path, capsys):
        rc = cli.main([
            "build", "--n", "3000", "--m", "2000", "--k1", "548",
            "--k2", "1212", "--dist", "tiny",
            "--catalog", str(workdir / "catalog.txt"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        captured = capsys.readouterr()
        report = captured.out + captured.err
        assert "FAIL syndrome_capacity" in report
        assert report.count("FAIL") == 1
        assert len(report.splitlines()) == 5   # one line per check

    @staticmethod
    def build_args(workdir, out, **flags):
        """build flags for the tiny geometry, with flags replacing some of
        them or adding more."""
        given = {"n": TINY_PARAMS.n, "m": TINY_PARAMS.m, "k1": TINY_PARAMS.k1,
                 "k2": TINY_PARAMS.k2, **flags}
        return ["build", *(tok for key, value in given.items()
                           for tok in (f"--{key}", str(value))),
                "--dist", "tiny", "--catalog", str(workdir / "catalog.txt"),
                "--seed", "5", "--out", str(out)]

    @pytest.mark.parametrize("flags, message", [
        ({"n": 0}, "n must be >= 1"),
        ({"k1": TINY_PARAMS.m}, "m - k1 must be >= 1"),
    ], ids=["n-zero", "no-generator-rows"])
    def test_impossible_geometry_exits_two_before_building(
            self, workdir, tmp_path, capsys, flags, message):
        rc = cli.main(self.build_args(workdir, tmp_path / "x", **flags))
        assert rc == 2
        assert capsys.readouterr().err == f"invalid: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_retired_flags_are_accepted_and_ignored(self, workdir, tmp_path,
                                                    capsys):
        """Older build commands pass --zeta, --poisson-lam and
        --poisson-imax; they still build the same files, and --help no
        longer lists them."""
        out = tmp_path / "x"
        rc = cli.main(self.build_args(workdir, out, zeta=0,
                                      **{"poisson-lam": 6.0,
                                         "poisson-imax": 20}))
        assert rc == 0
        assert {f.name for f in out.iterdir()} == {"manifest.json", "h.txt"}
        for name in ("manifest.json", "h.txt"):
            assert (out / name).read_bytes() == \
                (workdir / "tiny-code" / name).read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.main(["build", "--help"])
        text = capsys.readouterr().out
        assert "--k2" in text
        assert "zeta" not in text and "poisson" not in text

    def test_build_needs_no_poisson_flags(self, workdir, tmp_path):
        # an older command that passes --zeta alone still builds the code
        out = tmp_path / "x"
        rc = cli.main(self.build_args(workdir, out, zeta=4))
        assert rc == 0
        assert {f.name for f in out.iterdir()} == {"manifest.json", "h.txt"}
        for name in ("manifest.json", "h.txt"):
            assert (out / name).read_bytes() == \
                (workdir / "tiny-code" / name).read_bytes()

    def test_build_accepts_zeta_above_half_n(self, workdir, tmp_path):
        out = tmp_path / "x"
        rc = cli.main(self.build_args(workdir, out,
                                      zeta=TINY_PARAMS.n // 2 + 1))
        assert rc == 0
        for name in ("manifest.json", "h.txt"):
            assert (out / name).read_bytes() == \
                (workdir / "tiny-code" / name).read_bytes()

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["build", "--n", "96"])
        assert exc.value.code == 1


class TestQuantizeEncodeDecode:
    def test_quantize_writes_messages(self, workdir, capsys):
        out = workdir / "messages.txt"
        rc = cli.main(["quantize", "--code", str(workdir / "tiny-code"),
                       "--in", str(workdir / "sources.txt"),
                       "--out", str(out)])
        assert rc == 0
        assert "mean distortion" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert all(len(l) == TINY_PARAMS.info_rows for l in lines)
        assert all(set(l) <= {"0", "1"} for l in lines)

    def test_encode_writes_syndromes(self, workdir, capsys):
        out = workdir / "syndromes.txt"
        rc = cli.main(["encode", "--code", str(workdir / "tiny-code"),
                       "--in", str(workdir / "sources.txt"),
                       "--out", str(out)])
        assert rc == 0
        assert "rate" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert all(len(l) == TINY_PARAMS.k2 for l in lines)

    def test_commands_quantize_all_words_in_one_call(self, workdir, tmp_path,
                                                     monkeypatch):
        calls = []
        real = codec.bip_quantize_all

        def recording(g, sources, params):
            calls.append(len(sources))
            return real(g, sources, params)

        monkeypatch.setattr(codec, "bip_quantize_all", recording)
        code = load_code(workdir / "tiny-code")
        sources = [BitVector.from_bits_list([int(c) for c in line]) for line in
                   (workdir / "sources.txt").read_text().splitlines()]
        expected = {
            "quantize": [r.u for r in code.quantizer.quantize_all(sources)],
            "encode": [encode(code, s).syndrome for s in sources]}
        calls.clear()
        for cmd, vectors in expected.items():
            out = tmp_path / f"{cmd}.txt"
            rc = cli.main([cmd, "--code", str(workdir / "tiny-code"),
                           "--in", str(workdir / "sources.txt"),
                           "--out", str(out)])
            assert rc == 0
            assert out.read_text().splitlines() == [word_line(v)
                                                    for v in vectors]
        assert calls == [len(sources)] * 2

    def test_decode_recovers_quantized_word(self, workdir, tmp_path):
        code = load_code(workdir / "tiny-code")
        src_line = (workdir / "sources.txt").read_text().splitlines()[0]
        src = BitVector.from_bits_list([int(c) for c in src_line])
        enc = encode(code, src)
        side = tmp_path / "side.txt"
        side.write_text(word_line(enc.quantized.codeword) + "\n")
        syndrome = tmp_path / "syndrome.txt"
        syndrome.write_text(word_line(enc.syndrome) + "\n")
        out = tmp_path / "decoded.txt"
        rc = cli.main(["decode", "--code", str(workdir / "tiny-code"),
                       "--side", str(side), "--syndrome", str(syndrome),
                       "--crossover", "0.05", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines() == [
            word_line(enc.quantized.codeword)]

    def test_unequal_side_and_syndrome_counts_is_usage_error(
            self, workdir, tmp_path, capsys):
        syndrome = tmp_path / "syndrome.txt"
        syndrome.write_text("0" * TINY_PARAMS.k2 + "\n")
        out = tmp_path / "decoded.txt"
        rc = cli.main(["decode", "--code", str(workdir / "tiny-code"),
                       "--side", str(workdir / "sources.txt"),
                       "--syndrome", str(syndrome), "--crossover", "0.05",
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: 2 side words vs 1 syndromes\n")
        assert not out.exists()

    def test_commands_pack_no_generator_rows(self, workdir, tmp_path,
                                             monkeypatch):
        """quantize, encode and decode on a saved code never pack a matrix
        into Python-int rows."""
        packed = []
        real = BitMatrix.bitrows
        monkeypatch.setattr(BitMatrix, "bitrows",
                            lambda a: packed.append(a) or real(a))
        code = str(workdir / "tiny-code")
        sources = str(workdir / "sources.txt")
        syndromes = tmp_path / "syndromes.txt"
        for cmd, out in (("quantize", tmp_path / "messages.txt"),
                         ("encode", syndromes)):
            assert cli.main([cmd, "--code", code, "--in", sources,
                             "--out", str(out)]) == 0
        assert cli.main(["decode", "--code", code, "--side", sources,
                         "--syndrome", str(syndromes), "--crossover", "0.2",
                         "--out", str(tmp_path / "decoded.txt")]) == 0
        assert packed == []

    def test_removed_warm_start_flag_fails_before_load(self, workdir,
                                                       tmp_path, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_code", loads.append)
        with pytest.raises(SystemExit) as exc:
            cli.main(["encode", "--code", str(workdir / "tiny-code"),
                      "--in", str(workdir / "sources.txt"),
                      "--out", str(tmp_path / "o.txt"), "--warm-start"])
        assert exc.value.code == 1
        assert loads == []

    def test_malformed_word_file_is_usage_error(self, workdir, tmp_path,
                                                capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("01x01\n")
        rc = cli.main(["quantize", "--code", str(workdir / "tiny-code"),
                       "--in", str(bad), "--out", str(tmp_path / "o.txt")])
        assert rc == 1
        assert "0/1 only" in capsys.readouterr().err

    def test_wrong_length_is_usage_error(self, workdir, tmp_path):
        bad = tmp_path / "short.txt"
        bad.write_text("0101\n")
        rc = cli.main(["quantize", "--code", str(workdir / "tiny-code"),
                       "--in", str(bad), "--out", str(tmp_path / "o.txt")])
        assert rc == 1

    def test_invalid_manifest_geometry_exits_two(self, workdir, tmp_path,
                                                 capsys):
        code_dir = tmp_path / "code"
        shutil.copytree(workdir / "tiny-code", code_dir)
        manifest = json.loads((code_dir / "manifest.json").read_text())
        manifest["params"]["n"] = 95
        (code_dir / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(["quantize", "--code", str(code_dir),
                       "--in", str(workdir / "sources.txt"),
                       "--out", str(tmp_path / "o.txt")])
        assert rc == 2
        assert "invalid: n_even" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, message", [
        ("quantize", ["--threshold", "1.5"], "threshold must lie in (0, 1)"),
        ("encode", ["--damping", "1.0"], "damping must lie in [0, 1)"),
        ("decode", ["--crossover", "0.7"], "crossover must lie in (0, 0.5)"),
        ("quantize", ["--gamma", "nan"], "gamma must be finite and positive"),
        ("encode", ["--gamma", "inf"], "gamma must be finite and positive"),
    ])
    def test_bad_flags_fail_before_loading_the_code(
            self, workdir, tmp_path, capsys, command, flag, message):
        """The code directory is missing, yet the flag's error is the one
        reported."""
        words = str(workdir / "sources.txt")
        inputs = (["--side", words, "--syndrome", words]
                  if command == "decode" else ["--in", words])
        rc = cli.main([command, "--code", str(tmp_path / "nowhere"), *inputs,
                       *flag, "--out", str(tmp_path / "o.txt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert message in err and "nowhere" not in err

    @pytest.mark.parametrize("change", [
        lambda m: m.pop("seed"),
        lambda m: m.pop("params"),
        lambda m: m["params"].update(colour=3),
        lambda m: [1, 2],
        lambda m: m.update(seed="abc"),
        lambda m: m.update(seed=1.5),
        lambda m: m.update(seed=True),
        lambda m: m.update(seed=None),
        lambda m: m.update(seed=[1]),
        lambda m: m.update(dist_id=5),
        lambda m: m.update(dist_id=None),
    ], ids=["no-seed", "no-params", "unknown-params-key", "not-an-object",
            "seed-string", "seed-float", "seed-bool", "seed-null", "seed-list",
            "dist-id-number", "dist-id-null"])
    @pytest.mark.parametrize("command", ["quantize", "encode", "decode"])
    def test_malformed_manifest_exits_three(self, workdir, tmp_path, capsys,
                                            command, change):
        code_dir = tmp_path / "code"
        shutil.copytree(workdir / "tiny-code", code_dir)
        path = code_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        replaced = change(manifest)
        path.write_text(json.dumps(replaced if isinstance(replaced, list)
                                   else manifest))
        words = str(workdir / "sources.txt")
        inputs = (["--side", words, "--syndrome", words, "--crossover", "0.1"]
                  if command == "decode" else ["--in", words])
        rc = cli.main([command, "--code", str(code_dir), *inputs,
                       "--out", str(tmp_path / "o.txt")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: manifest.json: ")

    @pytest.mark.parametrize("how", ["non-orthogonal", "truncated"])
    def test_old_g1_file_is_ignored(self, workdir, tmp_path, capsys, how):
        """Older directories hold a g1.txt; even a spoiled one changes
        nothing that quantize, encode or decode write or print."""
        clean = workdir / "tiny-code"
        old = tmp_path / "old"
        shutil.copytree(clean, old)
        with open(old / "g1.txt", "w", encoding="utf-8") as f:
            write_matrix(f, load_code(clean).g1)
        lines = (old / "g1.txt").read_text().split("\n")
        if how == "non-orthogonal":   # flip a parity bit of g1 row 2
            lines[3] = " ".join(map(str, sorted(
                {int(tok) for tok in lines[3].split()} ^ {1})))
        else:
            lines = lines[:4]
        (old / "g1.txt").write_text("\n".join(lines))
        words = str(workdir / "sources.txt")
        outputs = {}
        for code_dir in (clean, old):
            files = [tmp_path / f"{code_dir.name}-{name}.txt"
                     for name in ("u", "syndromes", "decoded")]
            rcs = (cli.main(["quantize", "--code", str(code_dir),
                             "--in", words, "--out", str(files[0])]),
                   cli.main(["encode", "--code", str(code_dir), "--in", words,
                             "--out", str(files[1])]),
                   cli.main(["decode", "--code", str(code_dir),
                             "--side", words, "--syndrome", str(files[1]),
                             "--crossover", "0.1", "--out", str(files[2])]))
            outputs[code_dir] = (rcs, capsys.readouterr(),
                                 [f.read_bytes() for f in files])
        assert outputs[old] == outputs[clean]
        assert outputs[clean][0] == (0, 0, 0)

    @staticmethod
    def record_matrix_reads(monkeypatch) -> list:
        reads = []
        real = builder.read_matrix

        def recording(f):
            reads.append(Path(f.name).name)
            return real(f)

        monkeypatch.setattr(builder, "read_matrix", recording)
        return reads

    @pytest.mark.parametrize("command, files", [
        ("quantize", ["h.txt"]),
        ("encode", ["h.txt"]),
        ("decode", ["h.txt"])])
    def test_matrix_files_each_command_reads(self, workdir, tmp_path,
                                             monkeypatch, command, files):
        words = str(workdir / "sources.txt")
        syndromes = tmp_path / "syndromes.txt"
        syndromes.write_text("0" * TINY_PARAMS.k2 + "\n"
                             + "1" * TINY_PARAMS.k2 + "\n")
        inputs = (["--side", words, "--syndrome", str(syndromes),
                   "--crossover", "0.1"] if command == "decode"
                  else ["--in", words])
        reads = self.record_matrix_reads(monkeypatch)
        rc = cli.main([command, "--code", str(workdir / "tiny-code"), *inputs,
                       "--out", str(tmp_path / "o.txt")])
        assert rc == 0
        assert reads == files

    def test_missing_code_dir_exits_three(self, workdir, tmp_path):
        rc = cli.main(["quantize", "--code", str(tmp_path / "nowhere"),
                       "--in", str(workdir / "sources.txt"),
                       "--out", str(tmp_path / "o.txt")])
        assert rc == 3


def reference_write_words(path, words):
    """_write_words as a loop over each word's bits; its output is the
    reference for the array writer."""
    with open(path, "w", encoding="utf-8") as f:
        for w in words:
            f.write("".join(str(b) for b in w.to_list()) + "\n")


class TestWordFiles:
    WORDS = ["0110100", "1111111", "0000000"]

    def vectors(self):
        return [BitVector.from_bits_list([int(c) for c in w])
                for w in self.WORDS]

    @pytest.mark.parametrize("text", [
        "0110100\r\n1111111\r\n0000000\r\n",
        "  0110100\t\n1111111  \n \t0000000",
        "\n0110100\n\n\n1111111\n   \n0000000\n\n",
    ], ids=["crlf", "surrounding-whitespace", "blank-lines"])
    def test_accepts_loose_layout(self, tmp_path, text):
        path = tmp_path / "words.txt"
        path.write_bytes(text.encode())
        assert cli._read_words(str(path), 7) == self.vectors()

    @pytest.mark.parametrize("text, message", [
        ("0110100\n\n01101x0\n", ":3: word lines must be 0/1 only"),
        ("0110100\n0110 100\n", ":2: word lines must be 0/1 only"),
        ("0110100\n011012\n", ":2: word lines must be 0/1 only"),
        ("0110100\n0110\u00b9100\n", ":2: word lines must be 0/1 only"),
        ("0110100\n1111111\n01101\n", ":3: expected 7 bits, got 5"),
        ("\n \n", ": no words found"),
    ])
    def test_rejects_naming_the_line(self, tmp_path, text, message):
        path = tmp_path / "words.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(cli.UsageError) as e:
            cli._read_words(str(path), 7)
        assert str(e.value) == f"{path}{message}"

    def test_write_matches_reference_bytes(self, tmp_path):
        rng = random.Random(4)
        words = [BitVector(n, rng.getrandbits(n))
                 for n in (1, 7, 8, 9, 64, 65, 2000, 2000)]
        words.append(BitVector(70, (1 << 70) - 1))
        cli._write_words(str(tmp_path / "a.txt"), words)
        reference_write_words(tmp_path / "b.txt", words)
        assert (tmp_path / "a.txt").read_bytes() == \
            (tmp_path / "b.txt").read_bytes()
        assert cli._read_words(str(tmp_path / "a.txt")) == words


class TestRun:
    def experiment(self):
        return {"code_id": "tiny", "dist": "tiny",
                "n": TINY_PARAMS.n, "m": TINY_PARAMS.m,
                "k1": TINY_PARAMS.k1, "k2": TINY_PARAMS.k2,
                "p": 0.25, "trials": 2, "seed": 3, "build_seed": 5}

    def test_run_writes_csv_deterministically(self, workdir, tmp_path,
                                              capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [self.experiment()]}))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = cli.main(["run", "--config", str(config),
                           "--catalog", str(workdir / "catalog.txt"),
                           "--workers", "1", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == "# wzkit 0.1.0"
        assert lines[1] == ",".join(CSV_COLUMNS)
        row = next(csv.DictReader(lines[1:]))
        assert row["code_id"] == "tiny"
        assert int(row["trials"]) == 2
        assert "tiny" in capsys.readouterr().out

    def test_config_without_experiments_is_usage_error(self, workdir,
                                                       tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"runs": []}))
        rc = cli.main(["run", "--config", str(config),
                       "--catalog", str(workdir / "catalog.txt"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_malformed_json_names_line_and_column(self, workdir, tmp_path,
                                                  capsys):
        config = tmp_path / "config.json"
        config.write_text('{"experiments": [\n  {"n": 96,}\n]}\n')
        rc = cli.main(["run", "--config", str(config),
                       "--catalog", str(workdir / "catalog.txt"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {config}:2:12: Expecting property name enclosed in "
            f"double quotes\n")
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_profile_fails_before_build(self, workdir, tmp_path,
                                                monkeypatch, capsys):
        entry = dict(self.experiment(), dist="nope")
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "error: experiment 1: unknown degree profile 'nope'\n"
        assert "building" not in out
        assert not (tmp_path / "o.csv").exists()

    def test_missing_experiment_key_is_usage_error(self, workdir, tmp_path,
                                                   capsys):
        entry = self.experiment()
        del entry["seed"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [entry]}))
        rc = cli.main(["run", "--config", str(config),
                       "--catalog", str(workdir / "catalog.txt"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_quantizer_keys_reach_bip_quantize(self, workdir, tmp_path,
                                               monkeypatch):
        seen = []
        real = codec.bip_quantize_all

        def recording(g, sources, params):
            seen.extend([params] * len(sources))
            return real(g, sources, params)

        monkeypatch.setattr(codec, "bip_quantize_all", recording)
        entry = dict(self.experiment(), threshold=0.6, iters_per_round=7)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [entry]}))
        rc = cli.main(["run", "--config", str(config),
                       "--catalog", str(workdir / "catalog.txt"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert len(seen) == entry["trials"]
        assert {(p.threshold, p.iters_per_round)
                for p in seen} == {(0.6, 7)}

    def test_invalid_quantizer_key_fails_before_build(self, workdir, tmp_path,
                                                      monkeypatch, capsys):
        entry = dict(self.experiment(), threshold=1.5)
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 3
        assert "threshold" in capsys.readouterr().err

    def run_without_build(self, workdir, tmp_path, monkeypatch, entry):
        """Run a config whose second experiment is entry; nothing may be
        built, the first experiment included."""
        builds = []
        monkeypatch.setattr(cli, "build_compound_code",
                            lambda *a, **k: builds.append(a))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [self.experiment(),
                                                      entry]}))
        rc = cli.main(["run", "--config", str(config),
                       "--catalog", str(workdir / "catalog.txt"),
                       "--out", str(tmp_path / "o.csv")])
        assert builds == []
        return rc

    @pytest.mark.parametrize("key, value, line", [
        ("n", 201, "invalid: experiment 1: n_even (n=201)"),
        ("n", 0, "invalid: experiment 1: n must be >= 1")],
        ids=["odd-n", "zero-n"])
    def test_invalid_geometry_fails_before_build(self, workdir, tmp_path,
                                                 monkeypatch, capsys, key,
                                                 value, line):
        entry = dict(self.experiment(), **{key: value})
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 2
        out, err = capsys.readouterr()
        assert line in err.splitlines() and "building" not in out
        assert not (tmp_path / "o.csv").exists()

    def test_every_invalid_entry_is_reported(self, workdir, tmp_path,
                                             monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "build_compound_code",
                            lambda *a, **k: builds.append(a))
        entries = [dict(self.experiment(), n=0), self.experiment(),
                   dict(self.experiment(), m=TINY_PARAMS.m + 1)]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": entries}))
        rc = cli.main(["run", "--config", str(config),
                       "--catalog", str(workdir / "catalog.txt"),
                       "--out", str(tmp_path / "o.csv")])
        assert (rc, builds) == (2, [])
        out, err = capsys.readouterr()
        assert out == ""
        assert {line.split(": ")[1] for line in err.splitlines()} == {
            "experiment 0", "experiment 2"}

    def test_shipped_infeasible_config_exits_two(self, tmp_path, monkeypatch,
                                                 capsys):
        builds = []
        monkeypatch.setattr(cli, "build_compound_code",
                            lambda *a, **k: builds.append(a))
        config = (Path(__file__).resolve().parent.parent / "configs"
                  / "reverse_code13_n3000.json")
        rc = cli.main(["run", "--config", str(config),
                       "--out", str(tmp_path / "o.csv")])
        assert (rc, builds) == (2, [])
        assert capsys.readouterr().err == (
            "invalid: experiment 0: syndrome_capacity "
            "(n-k2=1788 vs m-k1=1452)\n")
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_experiment_key_is_usage_error(self, workdir, tmp_path,
                                                   monkeypatch, capsys):
        entry = dict(self.experiment(), treshold=0.5)
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 1
        assert "unknown key 'treshold'" in capsys.readouterr().err

    def test_removed_warm_start_key_is_unknown(self, workdir, tmp_path,
                                               monkeypatch, capsys):
        entry = dict(self.experiment(), warm_start=True)
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 1
        assert "unknown key 'warm_start'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n", "200"), ("trials", 1.5), ("seed", 1.5), ("trials", True),
        ("p", "0.25"), ("dist", ["code3"]), ("code_id", 3)])
    def test_mistyped_value_is_usage_error(self, workdir, tmp_path,
                                           monkeypatch, capsys, key, value):
        entry = dict(self.experiment(), **{key: value})
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 1
        out, err = capsys.readouterr()
        assert f"experiment 1: key {key!r} must be" in err
        assert "building" not in out

    def test_entry_that_is_not_an_object(self, workdir, tmp_path,
                                         monkeypatch, capsys):
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, 5)
        assert rc == 1
        assert "experiment 1: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["params", "bip"])
    def test_nested_dataclass_keys_are_unknown(self, workdir, tmp_path,
                                               monkeypatch, capsys, key):
        entry = dict(self.experiment(), **{key: {}})
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_zero_max_iter_fails_before_build(self, workdir, tmp_path,
                                              monkeypatch, capsys):
        entry = dict(self.experiment(), max_iter=0)
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 3
        out, err = capsys.readouterr()
        assert "max_iter" in err and "building" not in out

    def test_negative_seed_fails_before_build(self, workdir, tmp_path,
                                              monkeypatch, capsys):
        entry = dict(self.experiment(), seed=-1)
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 3
        out, err = capsys.readouterr()
        assert "seed" in err and "building" not in out

    def test_crossover_out_of_range_fails_before_build(self, workdir,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        entry = dict(self.experiment(), crossover=0.9)
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 3
        out, err = capsys.readouterr()
        assert "crossover" in err and "building" not in out

    def test_crossover_without_bound_fails_before_build(self, workdir,
                                                        tmp_path, monkeypatch,
                                                        capsys):
        entry = dict(self.experiment(), p=0.5 - 1e-10)
        rc = self.run_without_build(workdir, tmp_path, monkeypatch, entry)
        assert rc == 3
        out, err = capsys.readouterr()
        assert "tangency" in err and "building" not in out

    def test_shipped_configs_use_known_keys(self):
        configs = sorted(
            (Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        assert configs
        for path in configs:
            for index, entry in enumerate(
                    json.loads(path.read_text())["experiments"]):
                assert not set(entry) & set(builder.RETIRED_PARAMS)
                config, dist, _ = cli._experiment_from(entry, index)
                assert (config.code_id, dist) == (entry["code_id"],
                                                  entry["dist"])

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_fails_before_build(self, workdir, tmp_path,
                                                  monkeypatch, capsys,
                                                  workers):
        builds = []
        monkeypatch.setattr(cli, "build_compound_code",
                            lambda *a, **k: builds.append(a))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [self.experiment()]}))
        rc = cli.main(["run", "--config", str(config),
                       "--catalog", str(workdir / "catalog.txt"),
                       "--workers", workers, "--out", str(tmp_path / "o.csv")])
        assert (rc, builds) == (1, [])
        assert (capsys.readouterr().err
                == f"error: --workers must be >= 1, got {workers}\n")

    def test_retired_keys_write_the_same_rows(self, workdir, tmp_path):
        """An entry as older configs wrote it, with the three retired keys,
        gives the same CSV as one without them."""
        old = dict(self.experiment(), zeta=4, poisson_lam=6.0,
                   poisson_imax=20)
        outs = []
        for name, entry in (("new", self.experiment()), ("old", old)):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"experiments": [entry]}))
            out = tmp_path / f"{name}.csv"
            rc = cli.main(["run", "--config", str(config),
                           "--catalog", str(workdir / "catalog.txt"),
                           "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unwritable_out_fails_before_build(self, workdir, tmp_path,
                                               monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "build_compound_code",
                            lambda *a, **k: builds.append(a))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [self.experiment()]}))
        rc = cli.main(["run", "--config", str(config),
                       "--catalog", str(workdir / "catalog.txt"),
                       "--out", str(tmp_path / "nodir" / "o.csv")])
        assert (rc, builds) == (3, [])
        out, err = capsys.readouterr()
        assert "building" not in out
        assert err.startswith("error: ") and "nodir" in err

    def test_missing_config_file_exits_three(self, tmp_path):
        rc = cli.main(["run", "--config", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 3


class TestBound:
    def test_boundary_point(self, capsys):
        assert cli.main(["bound", "--p", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "distortion=0.088" in out
        assert "rate=0.444" in out

    def test_rate_query(self, capsys):
        assert cli.main(["bound", "--p", "0.25", "--rate", "0.6"]) == 0
        d = float(capsys.readouterr().out.strip())
        assert 0.0 < d < 0.25

    def test_distortion_query(self, capsys):
        assert cli.main(["bound", "--p", "0.25", "--distortion", "0.05"]) == 0
        r = float(capsys.readouterr().out.strip())
        assert r == pytest.approx(0.58, abs=0.05)

    def test_curve_file(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert cli.main(["bound", "--p", "0.25", "--points", "5",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert lines[1] == "distortion,rate"

    def test_bad_crossover_exits_three(self, capsys):
        assert cli.main(["bound", "--p", "0.75"]) == 3

    @pytest.mark.parametrize("query, message", [
        (["--p", "0.25", "--distortion", "0.7"], "distortion must lie in"),
        (["--p", "0.25", "--distortion", "-0.1"], "distortion must lie in"),
        (["--p", "0.6", "--distortion", "0.1"], "crossover must lie in")])
    def test_distortion_query_outside_the_domain_exits_three(
            self, capsys, query, message):
        assert cli.main(["bound", *query]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("query", [
        ["--p", "0.7", "--rate", "0"], ["--p", "0.7", "--rate", "5"],
        ["--p", "0.25", "--rate", "nan"]])
    def test_rate_query_outside_the_domain_exits_three(self, capsys, query):
        assert cli.main(["bound", *query]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_too_few_points_is_usage_error(self, tmp_path, capsys, points):
        out = tmp_path / "curve.csv"
        assert cli.main(["bound", "--p", "0.25", "--points", points,
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--points" in captured.err
        assert not out.exists()

    def test_rate_and_distortion_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--p", "0.25", "--rate", "0.6",
                      "--distortion", "0.05"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


class TestVerifyExample:
    def test_passes_quickly(self, capsys):
        start = time.monotonic()
        rc = cli.main(["verify-example"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert rc == 0
        assert elapsed < 1.0
        assert "PASS" in out
        assert "FAIL" not in out


class TestParser:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    """`wzkit.cli` alone imports neither; each costs a CLI call most of a
    second."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wzkit.cli; print(sorted(m for m in sys.modules "
         "if m in ('scipy.stats', 'scipy.optimize')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


def test_bound_and_run_leave_scipy_unloaded(tmp_path):
    """`wzkit bound` and `wzkit run` take numpy alone: the tangency point's
    root finder is a port of scipy's Brent solver, and importing
    scipy.optimize for it would cost each call about 0.6 s and 27 MiB."""
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(TINY_CATALOG_TEXT)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [TestRun().experiment()]}))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wzkit.cli\n"
         "assert wzkit.cli.main(['bound', '--p', '0.25']) == 0\n"
         f"assert wzkit.cli.main(['run', '--config', {str(config)!r},\n"
         f"    '--catalog', {str(catalog)!r}, '--workers', '1',\n"
         f"    '--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines()[0].startswith("boundary point:")
    assert proc.stdout.splitlines()[-1] == "[]"


def test_quantizing_leaves_scipy_sparse_unloaded():
    """Labelling the components of the decimation graph takes numpy alone:
    importing scipy.sparse.csgraph costs a CLI call about a third of a
    second."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wzkit.cli\n"
         "from wzkit.gf2 import BitMatrix, BitVector\n"
         "from wzkit.quantizer import bip_quantize_all\n"
         "g = BitMatrix(4, 6, [[0, 1], [1, 2], [3], [4, 5]])\n"
         "bip_quantize_all(g, [BitVector(6, 0b101101), BitVector(6, 7)])\n"
         "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


def test_decoding_leaves_scipy_sparse_unloaded():
    """The decoder's variable sums take numpy alone: importing scipy.sparse
    for a CSR product would cost every CLI call 0.2 s and 19 MiB, more than
    the decode work of a `wzkit decode`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wzkit.cli\n"
         "from wzkit.decoder import SpParams, sp_decode\n"
         "from wzkit.gf2 import BitMatrix, BitVector\n"
         "h = BitMatrix(3, 6, [[0, 1, 2], [2, 3, 4], [4, 5, 0]])\n"
         "res = sp_decode(h, BitVector(3, 0b101), BitVector(6, 0b110100),\n"
         "                SpParams(0.1, max_iter=5))\n"
         "assert res.iterations > 0, res\n"
         "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"
