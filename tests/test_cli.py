import struct
import zlib

import pytest

from xorfunc import basic, blocked, compact, filters, phf, serial
from xorfunc.cli import EXIT_DATA, EXIT_OK, EXIT_RANDOMNESS, EXIT_USAGE, ingest, main
from xorfunc.errors import DuplicateKeys, ParseError


def write_csv(path, n, r=8):
    with open(path, "wb") as fh:
        for i in range(n):
            fh.write(b"key%d,%d\n" % (i, i % (1 << r)))


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    assert ingest(str(path), "csv", 8) == []


def test_ingest_csv_and_range_check(tmp_path):
    path = tmp_path / "two.csv"
    path.write_bytes(b"a,3\nb,7\n")
    assert ingest(str(path), "csv", 4) == [(b"a", 3), (b"b", 7)]
    path.write_bytes(b"a,16\n")
    with pytest.raises(ParseError):
        ingest(str(path), "csv", 4)


def test_ingest_tsv(tmp_path):
    path = tmp_path / "two.tsv"
    path.write_bytes(b"a\t3\nb,with,commas\t7\n")
    assert ingest(str(path), "tsv", 4) == [(b"a", 3), (b"b,with,commas", 7)]


def test_ingest_duplicate_keys(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_bytes(b"a,1\nb,2\na,3\n")
    with pytest.raises(DuplicateKeys):
        ingest(str(path), "csv", 8)


def test_ingest_binary_lines(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_bytes(b"alpha\nbeta\n")
    assert ingest(str(path), "binary-lines", 8) == [(b"alpha", 0), (b"beta", 0)]


@pytest.mark.parametrize("kind", ["basic", "mphf"])
def test_build_at_k_29(tmp_path, kind):
    data, out = tmp_path / "data.csv", tmp_path / "d.bin"
    write_csv(data, 2000)
    build = ["build", "--kind", kind, "--input", str(data), "--out", str(out), "--k", "29"]
    assert main(build) == EXIT_OK
    assert main(["verify", "--structure", str(out), "--input", str(data)]) == EXIT_OK


def test_build_verify_query_stats_roundtrip(tmp_path, capsys):
    data = tmp_path / "data.csv"
    out = tmp_path / "d.bin"
    write_csv(data, 2000)
    assert main(["build", "--kind", "basic", "--input", str(data), "--bits", "8",
                 "--out", str(out), "--seed", "7"]) == EXIT_OK
    assert main(["verify", "--structure", str(out), "--input", str(data)]) == EXIT_OK
    capsys.readouterr()
    assert main(["query", "--structure", str(out), "--key", "key42"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "42"
    assert main(["stats", "--structure", str(out)]) == EXIT_OK
    stats = capsys.readouterr().out
    assert "n: 2000" in stats and "m: 2500" in stats and "table_bits: 20000" in stats


def test_keys_file_query(tmp_path, capsys):
    data = tmp_path / "data.csv"
    out = tmp_path / "d.bin"
    write_csv(data, 100)
    main(["build", "--kind", "basic", "--input", str(data), "--out", str(out)])
    keys = tmp_path / "keys.txt"
    keys.write_bytes(b"key1\nkey2\nkey3\n")
    capsys.readouterr()
    assert main(["query", "--structure", str(out), "--keys-file", str(keys)]) == EXIT_OK
    assert capsys.readouterr().out.split() == ["1", "2", "3"]


def test_every_kind_builds_and_verifies(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(data, 400)
    for kind in ("basic", "compact", "blocked", "filter", "bloomier", "phf", "mphf"):
        out = tmp_path / f"{kind}.bin"
        args = ["build", "--kind", kind, "--input", str(data), "--bits", "8",
                "--out", str(out), "--seed", "3", "--block-size", "16"]
        if kind in ("phf", "mphf"):
            args += ["--delta", "0.4"]
        assert main(args) == EXIT_OK, kind
        assert main(["verify", "--structure", str(out), "--input", str(data)]) == EXIT_OK, kind


def test_bench_runs(tmp_path, capsys):
    data = tmp_path / "data.csv"
    out = tmp_path / "d.bin"
    write_csv(data, 200)
    main(["build", "--kind", "basic", "--input", str(data), "--out", str(out)])
    capsys.readouterr()
    assert main(["bench", "--structure", str(out), "--queries", "500"]) == EXIT_OK
    assert "queries_per_sec" in capsys.readouterr().out


def test_thresholds_csv_deterministic(capsys):
    assert main(["thresholds", "--k-min", "3", "--k-max", "4", "--tol", "1e-5"]) == EXIT_OK
    first = capsys.readouterr().out
    main(["thresholds", "--k-min", "3", "--k-max", "4", "--tol", "1e-5"])
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "k,beta,beta_approx,beta_inverse"
    assert first.splitlines()[1].startswith("3,0.889")


def test_mc_rank_csv(capsys):
    assert main(["mc-rank", "--k", "3", "--n", "300", "--ratio", "0.8",
                 "--trials", "8", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,n,m,trials,full_rank_count,fraction"
    fields = out[1].split(",")
    assert fields[0] == "3" and fields[3] == "8"


def test_mc_rank_prime_field(capsys):
    assert main(["mc-rank", "--k", "3", "--n", "50", "--m", "60", "--trials", "5",
                 "--field", "prime:101", "--plant", "--seed", "2"]) == EXIT_OK
    assert "prime" not in capsys.readouterr().out.splitlines()[0]  # plain CSV header


def test_lower_bound_output(capsys):
    assert main(["lower-bound", "--n", "1000", "--epsilon", "0.00390625"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lower_bound_bits: 8000.00" in out
    assert main(["lower-bound", "--n", "100", "--epsilon", "0.0625",
                 "--universe", "1000000", "--exact"]) == EXIT_OK
    assert "counting_bound_bits:" in capsys.readouterr().out


def test_missing_structure_file_is_data_error(tmp_path, capsys):
    rc = main(["query", "--structure", str(tmp_path / "nope.bin"), "--key", "x"])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["build", "--kind", "nonsense"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_duplicate_keys_exit_code(tmp_path):
    data = tmp_path / "dup.csv"
    data.write_bytes(b"a,1\na,2\n")
    rc = main(["build", "--kind", "basic", "--input", str(data),
               "--out", str(tmp_path / "x.bin")])
    assert rc == EXIT_DATA


def test_randomness_exhausted_exit_code(tmp_path):
    import warnings

    data = tmp_path / "tight.csv"
    write_csv(data, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["build", "--kind", "basic", "--input", str(data), "--delta", "0.01",
                   "--out", str(tmp_path / "x.bin"), "--seed", "1"])
    assert rc == EXIT_RANDOMNESS


def test_corrupted_structure_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    out = tmp_path / "d.bin"
    write_csv(data, 50)
    main(["build", "--kind", "basic", "--input", str(data), "--out", str(out)])
    blob = bytearray(out.read_bytes())
    blob[50] ^= 0x01
    out.write_bytes(bytes(blob))
    assert main(["verify", "--structure", str(out), "--input", str(data)]) == EXIT_DATA


@pytest.mark.parametrize("line, message", [(b"k1", "missing"), (b"k1,x", "bad value")])
def test_malformed_csv_line_is_one_error_line(tmp_path, capsys, line, message):
    data, built, bad = tmp_path / "data.csv", tmp_path / "built.bin", tmp_path / "bad.csv"
    write_csv(data, 20)
    assert main(["build", "--kind", "basic", "--input", str(data), "--out", str(built)]) == 0
    capsys.readouterr()
    bad.write_bytes(b"key0,0\n" + line + b"\n")
    for argv in (
        ["build", "--kind", "basic", "--input", str(bad), "--out", str(tmp_path / "x.bin")],
        ["verify", "--structure", str(built), "--input", str(bad)],
    ):
        assert main(argv) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: line 2: ") and message in err


def test_verification_mismatch_is_data_error(tmp_path):
    data = tmp_path / "data.csv"
    out = tmp_path / "d.bin"
    write_csv(data, 50)
    main(["build", "--kind", "basic", "--input", str(data), "--out", str(out)])
    wrong = tmp_path / "wrong.csv"
    wrong.write_bytes(b"key0,255\n")
    assert main(["verify", "--structure", str(out), "--input", str(wrong)]) == EXIT_DATA


def test_table_as_wide_as_k_is_data_error(tmp_path, capsys):
    """Two keys at the default k = 3, delta = 0.25 give m = 3: rejected, not retried."""
    data = tmp_path / "two.csv"
    write_csv(data, 2)
    rc = main(["build", "--kind", "basic", "--input", str(data), "--out", str(tmp_path / "x.bin")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: k=3 equals table size m=3")


@pytest.mark.parametrize("kind", ["phf", "mphf"])
def test_perfect_hash_over_k_slots_is_data_error(tmp_path, capsys, kind):
    """The perfect hashes reject the same m = k shape, rather than spending every generation."""
    data = tmp_path / "two.csv"
    write_csv(data, 2)
    rc = main(["build", "--kind", kind, "--input", str(data), "--out", str(tmp_path / "x.bin")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: k=3 equals table size m=3")


def _pairs(n):
    return [(b"st%d" % i, i % 256) for i in range(n)]


STATS_STRUCTURES = {
    "basic": lambda: basic.build(_pairs(2000), r=8, seed=1),
    "split-share": lambda: basic.build(_pairs(2000), r=8, seed=2, split_share=True),
    "compact": lambda: compact.build_compact(_pairs(2000), r=8, seed=3),
    "blocked": lambda: blocked.build_blocked(_pairs(2000), r=8, b=16, seed=4),
    "filter": lambda: filters.build_filter([k for k, _ in _pairs(2000)], s=8, seed=5),
    "bloomier": lambda: filters.build_bloomier(_pairs(2000), r=8, s=8, seed=6),
    "phf": lambda: phf.build_phf([k for k, _ in _pairs(2000)], seed=7),
    "mphf-bitvector-image": lambda: phf.build_mphf([k for k, _ in _pairs(2000)], delta=0.4),
    "mphf": lambda: phf.build_mphf([k for k, _ in _pairs(10_000)], delta=0.035, seed=8),
}


@pytest.mark.parametrize("case", list(STATS_STRUCTURES))
def test_stats_table_bits_fit_in_the_container(tmp_path, capsys, case):
    """``table_bits`` counts only stored bits, so the header is what remains of the file."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        structure = STATS_STRUCTURES[case]()
    path = tmp_path / "s.sdr"
    path.write_bytes(serial.serialize(structure))
    assert main(["stats", "--structure", str(path)]) == EXIT_OK
    stats = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    header, table, total = (int(stats[f]) for f in ("header_bits", "table_bits", "total_bits"))
    assert header >= 0 and header + table == total == 8 * path.stat().st_size
    assert float(stats["bits_per_key"]) <= float(stats["total_bits_per_key"])
    if case.startswith("mphf"):
        image = int(stats["image_bits"])
        assert table == structure.m * int(stats["lambda_bits_per_slot"]) + image
        assert stats["lower_bound_bits_per_key"] == "1.4427"
    if case == "mphf":  # m = 10,350: 2 selector bits per slot and 2,397 list bits
        assert (table, image, total) == (23_097, 2_397, 23_592)
        assert stats["bits_per_key"] == "2.3097"


def test_split_share_flag(tmp_path):
    data = tmp_path / "data.csv"
    out = tmp_path / "d.bin"
    write_csv(data, 2000)
    assert main(["build", "--kind", "basic", "--input", str(data), "--split-share",
                 "--out", str(out), "--seed", "4"]) == EXIT_OK
    assert main(["verify", "--structure", str(out), "--input", str(data)]) == EXIT_OK


# `query` answers for PINNED_KEYS and `stats` lines per --kind/option combination,
# built from pinned_csv at --seed 3 --block-size 16 (--delta 0.4 for phf and mphf).
# Filters print their backend's n and m, and r is the payload width (0 for a
# membership filter, a perfect hash and a minimal perfect hash).
PINNED_KEYS = [b"key0", b"key7", b"key42", b"key299", b"absent", b"zz-none"]
PINNED_CASES = {
    "basic": [],
    "compact": [],
    "blocked": [],
    "filter": [],
    "bloomier": [],
    "phf": [],
    "mphf": [],
    "basic-split-share": ["--split-share"],
    "filter-compact": ["--backend", "compact"],
    "filter-blocked": ["--backend", "blocked"],
    "bloomier-blocked": ["--backend", "blocked"],
    "filter-split-share": ["--split-share"],
}
PINNED_OUTPUT = {
    "basic": (
        ["0", "3", "18", "55", "29", "147"],
        [
            "type: basic", "n: 300", "m: 375", "r: 8", "table_bits: 3000", "header_bits: 496",
            "total_bits: 3496", "bits_per_key: 10.0000", "total_bits_per_key: 11.6533", "k: 3",
            "seed_generation: 0",
        ],
    ),
    "compact": (
        ["0", "3", "18", "55", "184", "36"],
        [
            "type: compact", "n: 300", "m: 300", "r: 8", "table_bits: 2400", "header_bits: 552",
            "total_bits: 2952", "bits_per_key: 8.0000", "total_bits_per_key: 9.8400",
            "seed_index: 0", "probe_range: [3, 22]",
        ],
    ),
    "blocked": (
        ["0", "3", "18", "55", "167", "14"],
        [
            "type: blocked", "n: 300", "m: 437", "r: 8", "table_bits: 4848", "header_bits: 872",
            "total_bits: 5720", "bits_per_key: 16.1600", "total_bits_per_key: 19.0667", "k: 3",
            "blocks: 19", "segment_len: 23", "overflow_fraction: 0.4333", "secondary_len: 169",
        ],
    ),
    "filter": (
        ["yes", "yes", "yes", "yes", "no", "no"],
        [
            "type: filter", "n: 300", "m: 375", "r: 0", "table_bits: 3000", "header_bits: 992",
            "total_bits: 3992", "bits_per_key: 10.0000", "total_bits_per_key: 13.3067",
            "sig_bits: 8", "backend: basic", "fp_rate: 0.00390625",
        ],
    ),
    "bloomier": (
        ["yes 0", "yes 3", "yes 18", "yes 55", "no", "no"],
        [
            "type: bloomier", "n: 300", "m: 375", "r: 8", "table_bits: 6000",
            "header_bits: 1000", "total_bits: 7000", "bits_per_key: 20.0000",
            "total_bits_per_key: 23.3333", "sig_bits: 8", "payload_bits: 8", "backend: basic",
        ],
    ),
    "phf": (
        ["124", "195", "80", "417", "284", "51"],
        [
            "type: phf", "n: 300", "m: 420", "r: 0", "table_bits: 840", "header_bits: 488",
            "total_bits: 1328", "bits_per_key: 2.8000", "total_bits_per_key: 4.4267", "k: 3",
            "lambda_bits_per_slot: 2",
        ],
    ),
    "mphf": (
        ["84", "125", "55", "297", "192", "33"],
        [
            "type: mphf", "n: 300", "m: 420", "r: 0", "table_bits: 1260", "header_bits: 492",
            "total_bits: 1752", "bits_per_key: 4.2000", "total_bits_per_key: 5.8400", "k: 3",
            "lambda_bits_per_slot: 2", "image_bits: 420",
            "lower_bound_bits_per_key: 1.4427",
        ],
    ),
    "basic-split-share": (
        ["0", "3", "18", "55", "241", "216"],
        [
            "type: basic", "n: 300", "m: 476", "r: 8", "table_bits: 3808", "header_bits: 29488",
            "total_bits: 33296", "bits_per_key: 12.6933", "total_bits_per_key: 110.9867",
            "k: 3", "split_share: true", "chunks: 90", "max_chunk: 8",
        ],
    ),
    "filter-compact": (
        ["yes", "yes", "yes", "yes", "no", "no"],
        [
            "type: filter", "n: 300", "m: 300", "r: 0", "table_bits: 2400", "header_bits: 1048",
            "total_bits: 3448", "bits_per_key: 8.0000", "total_bits_per_key: 11.4933",
            "sig_bits: 8", "backend: compact", "fp_rate: 0.00390625",
        ],
    ),
    "filter-blocked": (
        ["yes", "yes", "yes", "yes", "no", "no"],
        [
            "type: filter", "n: 300", "m: 437", "r: 0", "table_bits: 4848", "header_bits: 1368",
            "total_bits: 6216", "bits_per_key: 16.1600", "total_bits_per_key: 20.7200",
            "sig_bits: 8", "backend: blocked", "fp_rate: 0.00390625",
        ],
    ),
    "bloomier-blocked": (
        ["yes 0", "yes 3", "yes 18", "yes 55", "no", "no"],
        [
            "type: bloomier", "n: 300", "m: 437", "r: 8", "table_bits: 9696",
            "header_bits: 1376", "total_bits: 11072", "bits_per_key: 32.3200",
            "total_bits_per_key: 36.9067", "sig_bits: 8", "payload_bits: 8", "backend: blocked",
        ],
    ),
    "filter-split-share": (
        ["yes", "yes", "yes", "yes", "no", "no"],
        [
            "type: filter", "n: 300", "m: 476", "r: 0", "table_bits: 3808",
            "header_bits: 29984", "total_bits: 33792", "bits_per_key: 12.6933",
            "total_bits_per_key: 112.6400", "sig_bits: 8", "backend: basic",
            "fp_rate: 0.00390625", "split_share: true",
            "fp_note: simulated hashing adds O(1/sqrt(n)) to the fp rate",
        ],
    ),
}


@pytest.mark.parametrize("case", list(PINNED_CASES))
def test_query_and_stats_output_per_kind(tmp_path, capsys, case):
    data = tmp_path / "data.csv"
    data.write_bytes(b"".join(b"key%d,%d\n" % (i, (i * 37) % 256) for i in range(300)))
    keys = tmp_path / "keys.txt"
    keys.write_bytes(b"\n".join(PINNED_KEYS) + b"\n")
    kind = case.split("-")[0]
    out = tmp_path / "s.sdr"
    args = ["build", "--kind", kind, "--input", str(data), "--bits", "8", "--seed", "3",
            "--block-size", "16", "--out", str(out), *PINNED_CASES[case]]
    if kind in ("phf", "mphf"):
        args += ["--delta", "0.4"]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    assert main(["query", "--structure", str(out), "--keys-file", str(keys)]) == EXIT_OK
    answers = capsys.readouterr().out.splitlines()
    assert main(["stats", "--structure", str(out)]) == EXIT_OK
    stats = capsys.readouterr().out.splitlines()
    assert (answers, stats) == PINNED_OUTPUT[case]
    assert stats[0] == f"type: {kind}"
    assert main(["verify", "--structure", str(out), "--input", str(data)]) == EXIT_OK
    assert capsys.readouterr().out == "verified 300 keys\n"


def test_inconsistent_container_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    out = tmp_path / "d.bin"
    write_csv(data, 50)
    main(["build", "--kind", "basic", "--input", str(data), "--out", str(out)])
    body = bytearray(out.read_bytes()[:-4])
    body[17:25] = struct.pack("<Q", 1 << 40)  # m: far more entries than the payload holds
    out.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    assert main(["query", "--structure", str(out), "--key", "key1"]) == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_rejected_build_parameter_is_usage_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_csv(data, 20, r=0)  # every value 0, so --bits 0 passes ingest
    for extra in (["--k", "1"], ["--bits", "0"], ["--kind", "blocked", "--block-size", "4"]):
        args = ["build", "--kind", "basic", "--input", str(data), "--out", str(tmp_path / "x.bin")]
        assert main(args + extra) == EXIT_USAGE, extra
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["build", "--kind", "basic", "--input", "{dir}", "--out", "{dir}/x.bin"], EXIT_DATA),
        (["build", "--kind", "basic", "--input", "{data}", "--out", "{dir}"], EXIT_DATA),
        (["query", "--structure", "{built}", "--keys-file", "{dir}"], EXIT_DATA),
        (["verify", "--structure", "{built}", "--input", "{dir}"], EXIT_DATA),
        (["mc-rank", "--n", "10", "--ratio", "0"], EXIT_USAGE),
        (["mc-rank", "--n", "10", "--ratio", "-1"], EXIT_USAGE),
        (["mc-rank", "--n", "10", "--m", "12", "--k", "0"], EXIT_USAGE),
        (["mc-rank", "--n", "-5", "--m", "10"], EXIT_USAGE),
        (["mc-rank", "--n", "10", "--m", "12", "--trials", "0"], EXIT_USAGE),
        (["mc-rank", "--n", "10"], EXIT_USAGE),
        (["mc-rank", "--n", "10", "--m", "12", "--field", "prime:x"], EXIT_USAGE),
        (["lower-bound", "--n", "0", "--epsilon", "0.1"], EXIT_USAGE),
        (["bench", "--structure", "{built}", "--queries", "-5"], EXIT_USAGE),
        (["thresholds", "--k-min", "2"], EXIT_USAGE),
        (["thresholds", "--tol", "0"], EXIT_USAGE),
    ],
)
def test_unreadable_path_or_rejected_parameter_is_one_error_line(tmp_path, capsys, argv, code):
    data, built = tmp_path / "data.csv", tmp_path / "built.bin"
    write_csv(data, 20)
    assert main(["build", "--kind", "basic", "--input", str(data), "--out", str(built)]) == 0
    capsys.readouterr()
    paths = {"dir": tmp_path, "data": data, "built": built}
    assert main([arg.format(**paths) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
