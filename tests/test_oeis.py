"""b-file parsing, caching, and triangle reshaping."""

import http.client
import subprocess
import sys
import threading

import pytest

from helpers import fake_urlopen, src_env
from tripos.errors import (
    BFileError,
    CacheMissError,
    ContiguityError,
    FetchError,
    ReshapeError,
)
from tripos.oeis import (
    FETCH_TIMEOUT_S,
    BFile,
    bfile_url,
    fetch_bfile,
    parse_bfile,
    reshape,
    resolve_cache_dir,
    trim_to_rows,
)
from tripos.triangles import bisnomial_row

URLOPEN = "urllib.request.urlopen"


def synthetic_bfile(rows):
    """Flatten triangle rows into b-file text, indexed from 0."""
    values = [v for row in rows for v in row]
    return "".join(f"{i} {v}\n" for i, v in enumerate(values))


class TestParse:
    def test_basic(self):
        b = parse_bfile("0 1\n1 1\n2 2\n", "A000001")
        assert b.entries == ((0, 1), (1, 1), (2, 2))
        assert b.values == [1, 1, 2]

    def test_comments_and_blanks_skipped(self):
        b = parse_bfile("# comment\n\n0 1\n")
        assert b.entries == ((0, 1),)

    def test_contiguity_error(self):
        with pytest.raises(ContiguityError):
            parse_bfile("0 1\n2 5\n")

    def test_malformed_line_number(self):
        with pytest.raises(BFileError, match="line 2"):
            parse_bfile("0 1\n1 x\n")
        with pytest.raises(BFileError, match="line 1"):
            parse_bfile("0 1 2\n")

    def test_empty(self):
        with pytest.raises(BFileError):
            parse_bfile("# nothing\n")

    def test_negative_start_index_allowed(self):
        b = parse_bfile("-1 7\n0 8\n")
        assert b.entries == ((-1, 7), (0, 8))


class TestReshape:
    def test_arity2(self):
        b = parse_bfile(synthetic_bfile([[1], [1, 2, 3], [4, 5, 6, 7, 8]]))
        t = reshape(b, 2)
        assert [len(r) for r in t.rows] == [1, 3, 5]
        assert t.arity == 2

    def test_arity1(self):
        b = parse_bfile("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n")
        t = reshape(b, 1)
        assert [list(r) for r in t.rows] == [[1], [2, 3], [4, 5, 6]]

    def test_residue_error(self):
        b = parse_bfile("\n".join(f"{i} 1" for i in range(7)) + "\n")
        with pytest.raises(ReshapeError, match="3 left over"):
            reshape(b, 2)

    def test_arity_zero_raises(self):
        with pytest.raises(ReshapeError, match="arity must be a positive integer"):
            reshape(parse_bfile("0 1\n1 1\n"), 0)

    def test_trim_without_a_complete_row_raises(self):
        with pytest.raises(ReshapeError, match="not even one complete row"):
            trim_to_rows(BFile("A000001", ()), 1)

    def test_trim_to_rows(self):
        b = parse_bfile("\n".join(f"{i} 1" for i in range(7)) + "\n")
        trimmed = trim_to_rows(b, 2)
        assert len(trimmed.entries) == 4
        t = reshape(trimmed, 2)
        assert [len(r) for r in t.rows] == [1, 3]

    def test_trim_keeps_exactly_what_reshape_accepts(self):
        for arity in (1, 2, 3):
            for total in range(1, 40):
                b = parse_bfile("".join(f"{i} {i}\n" for i in range(total)))
                trimmed = trim_to_rows(b, arity)
                t = reshape(trimmed, arity)
                rows = len(t.rows)
                assert [len(r) for r in t.rows] == [arity * n + 1 for n in range(rows)]
                assert [v for r in t.rows for v in r] == b.values[:len(trimmed.entries)]
                left = total - len(trimmed.entries)
                assert left < arity * rows + 1  # the next row would not fit
                if left:
                    message = (f"^{total} values do not fill whole rows of arity {arity}: "
                               f"{left} left over after {rows} complete rows$")
                    with pytest.raises(ReshapeError, match=message):
                        reshape(b, arity)
                else:
                    assert reshape(b, arity) == t

    def test_roundtrip_preserves_values(self):
        from tripos.triangles import Triangle

        rows = [bisnomial_row(n, 2) for n in range(8)]
        b = parse_bfile(synthetic_bfile(rows), "A027907")
        t = reshape(b, 2)
        assert [list(r) for r in t.rows] == rows
        assert Triangle.parse(t.serialize()) == t  # full serialize round trip


class TestFetch:
    def test_rejects_bad_id(self, tmp_path):
        with pytest.raises(BFileError):
            fetch_bfile("27907", cache_dir=tmp_path)

    def test_offline_cold_cache(self, tmp_path):
        with pytest.raises(CacheMissError, match="offline cache miss"):
            fetch_bfile("A027907", cache_dir=tmp_path, offline=True)

    def test_offline_warm_cache(self, tmp_path):
        rows = [bisnomial_row(n, 2) for n in range(5)]
        (tmp_path / "A027907.txt").write_text(synthetic_bfile(rows))
        b = fetch_bfile("A027907", cache_dir=tmp_path, offline=True)
        assert reshape(b, 2).rows == tuple(tuple(r) for r in rows)

    def test_network_fetch_writes_cache(self, tmp_path, monkeypatch):
        rows = [bisnomial_row(n, 2) for n in range(4)]
        payload = synthetic_bfile(rows).encode()
        calls = []
        monkeypatch.setattr(URLOPEN, fake_urlopen(payload, calls))
        b = fetch_bfile("A027907", cache_dir=tmp_path)
        assert calls == [bfile_url("A027907")]
        assert (tmp_path / "A027907.txt").read_bytes() == payload
        assert b.values[:9] == [1, 1, 1, 1, 1, 2, 3, 2, 1]
        # second call is served from cache: no new network hit
        b2 = fetch_bfile("A027907", cache_dir=tmp_path)
        assert calls == [bfile_url("A027907")]
        assert b2 == b

    def test_download_waits_fetch_timeout(self, tmp_path, monkeypatch):
        timeouts = []

        def urlopen(url, timeout):
            timeouts.append(timeout)
            return fake_urlopen(b"0 1\n")(url, timeout)

        monkeypatch.setattr(URLOPEN, urlopen)
        fetch_bfile("A000001", cache_dir=tmp_path)
        assert timeouts == [FETCH_TIMEOUT_S]

    def test_network_failure_surfaces(self, tmp_path, monkeypatch):
        def fail(url, timeout):
            raise OSError("unreachable")

        monkeypatch.setattr(URLOPEN, fail)
        with pytest.raises(FetchError):
            fetch_bfile("A027907", cache_dir=tmp_path)
        assert not list(tmp_path.iterdir())  # nothing cached on failure

    def test_malformed_download_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(URLOPEN, fake_urlopen(b"0 1\n5 2\n"))
        with pytest.raises(ContiguityError):
            fetch_bfile("A027907", cache_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_non_utf8_download_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(URLOPEN, fake_urlopen(b"0 1\n1 \xff\n"))
        with pytest.raises(BFileError, match="not UTF-8"):
            fetch_bfile("A027907", cache_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_truncated_download_raises_fetch_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(URLOPEN, fake_urlopen(http.client.IncompleteRead(b"0 1\n1")))
        with pytest.raises(FetchError, match="could not retrieve"):
            fetch_bfile("A027907", cache_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_bad_status_line_raises_fetch_error(self, tmp_path, monkeypatch):
        def garbled(url, timeout):
            raise http.client.BadStatusLine("HTTP/1.1 ???")

        monkeypatch.setattr(URLOPEN, garbled)
        with pytest.raises(FetchError, match="could not retrieve"):
            fetch_bfile("A027907", cache_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_non_utf8_cache_raises_bfile_error(self, tmp_path):
        (tmp_path / "A027907.txt").write_bytes(b"0 1\n1 \xff\n")
        with pytest.raises(BFileError, match="cannot read cached b-file"):
            fetch_bfile("A027907", cache_dir=tmp_path, offline=True)

    def test_unreadable_cache_raises_bfile_error(self, tmp_path, monkeypatch):
        (tmp_path / "A027907.txt").write_text("0 1\n")

        def fail(self, *args, **kwargs):
            raise PermissionError("denied")

        monkeypatch.setattr("pathlib.Path.read_text", fail)
        with pytest.raises(BFileError, match="denied"):
            fetch_bfile("A027907", cache_dir=tmp_path, offline=True)

    def test_unwritable_cache_raises_bfile_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(URLOPEN, fake_urlopen(b"0 1\n1 1\n"))
        cache = tmp_path / "not-a-dir"
        cache.write_text("")
        with pytest.raises(BFileError, match="cannot write b-file cache"):
            fetch_bfile("A027907", cache_dir=cache)

        def refuse(*args, **kwargs):
            raise PermissionError("denied")

        monkeypatch.setattr("tripos.oeis.os.replace", refuse)
        with pytest.raises(BFileError, match="denied"):
            fetch_bfile("A027907", cache_dir=tmp_path / "cache")
        assert not list((tmp_path / "cache").iterdir())  # the temp file is gone

    def test_concurrent_fetches_do_not_corrupt(self, tmp_path, monkeypatch):
        rows = [bisnomial_row(n, 2) for n in range(6)]
        payload = synthetic_bfile(rows).encode()

        monkeypatch.setattr(URLOPEN, fake_urlopen(payload))
        results = []

        def worker():
            results.append(fetch_bfile("A027907", cache_dir=tmp_path))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert (tmp_path / "A027907.txt").read_bytes() == payload
        assert all(r.values == results[0].values for r in results)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers


def test_http_stack_loads_only_for_a_download(tmp_path):
    # The network modules (and ssl and email parsing with them) are a third
    # of a cold start; neither the import nor a run that stays offline, on a
    # cache hit or a cache miss, may load them.
    rows = [bisnomial_row(n, 2) for n in range(4)]
    (tmp_path / "A027907.txt").write_text(synthetic_bfile(rows))
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import tripos, tripos.cli\n"
        "codes = []\n"
        "for oid in ('A027907', 'A000001'):\n"
        "    argv = ['check', '--oeis', oid, '--arity', '2', '--offline',\n"
        "            '--cache-dir', sys.argv[1], 'rows-log-concave']\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(tripos.cli.main(argv))\n"
        "loaded = {'urllib.request', 'http.client', 'ssl'} & (set(sys.modules) - before)\n"
        "print(codes, sorted(loaded))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=src_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[0, 2] []\n"


def test_cli_loads_each_half_of_the_paper_on_first_use(tmp_path):
    # The condition lists, the transform and b-file ingestion are imported
    # only by the verbs that use them, so a check of a preset never pays for
    # them; each is loaded by its first run.  No verb loads dataclasses or
    # inspect, which the value records do without.
    (tmp_path / "polys.txt").write_text("1\n1 1\n1 2 1\n1 3 3 1\n")
    script = (
        "import contextlib, io, sys\n"
        "import tripos.cli\n"
        "def loaded(stage):\n"
        "    lazy = ('tripos.conditions', 'tripos.transforms', 'tripos.oeis')\n"
        "    never = ('dataclasses', 'inspect')\n"
        "    print(stage, [m for m in lazy if m in sys.modules],\n"
        "          [m for m in never if m in sys.modules])\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        return tripos.cli.main(list(argv))\n"
        "tripos.cli.build_parser()\n"
        "loaded('import')\n"
        "loaded(run('check', '--preset', 'motzkin', '--n', '6', 'rows-log-concave'))\n"
        "loaded(run('generate', '--preset', 'pascal', '--n', '4'))\n"
        "loaded(run('conditions', 'cor22', '--params', '1,1,1,1,1,0,0'))\n"
        "loaded(run('transform', sys.argv[1], '--s', '1', '--direction', 'convex'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "polys.txt")],
                         env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "import [] []",
        "0 [] []",
        "0 [] []",
        "0 ['tripos.conditions'] []",
        "0 ['tripos.conditions', 'tripos.transforms'] []",
    ]
    # Without site (-S), no startup hook has loaded typing before tripos.
    script = ("import sys, tripos.cli\n"
              "tripos.cli.build_parser()\n"
              "print([m for m in ('typing', 'dataclasses', 'inspect') if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


class TestCacheDirResolution:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIPOS_OEIS_CACHE", "/somewhere/else")
        assert resolve_cache_dir(tmp_path) == tmp_path

    def test_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIPOS_OEIS_CACHE", str(tmp_path))
        assert resolve_cache_dir(None) == tmp_path

    def test_user_cache_fallback(self, monkeypatch):
        monkeypatch.delenv("TRIPOS_OEIS_CACHE", raising=False)
        path = resolve_cache_dir(None)
        assert path.parts[-2:] == ("tripos", "oeis")


class TestTrinomialEquivalence:
    def test_synthetic_a027907_matches_generator(self):
        # The trinomial triangle read by rows: ingesting it must reproduce
        # the five-term 2-Pascal generator exactly on overlapping rows.
        from tripos.triangles import CoeffScheme, from_five_term

        rows = [bisnomial_row(n, 2) for n in range(12)]
        b = parse_bfile(synthetic_bfile(rows), "A027907")
        ingested = reshape(b, 2)
        one = CoeffScheme.constant(1)
        zero = CoeffScheme.constant(0)
        generated = from_five_term(one, one, one, zero, zero, 11)
        assert ingested.rows == generated.rows
