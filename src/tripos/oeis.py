"""OEIS b-file ingestion with a local cache.

Triangles that are consumed as data (no recurrence available) arrive as
b-files: one ``<index> <value>`` pair per line, indices contiguous.  Files
are cached as UTF-8 text, verbatim but for a leading byte order mark, under
``<cache_dir>/<id>.txt`` so offline runs are reproducible; cache writes go
through a temp file and an atomic rename.
"""

from __future__ import annotations

import os
import re
import tempfile
from itertools import islice
from pathlib import Path

from .errors import BFileError, CacheMissError, ContiguityError, FetchError, ReshapeError
from .records import Record
from .triangles import Triangle

_ID_RE = re.compile(r"^A\d{6}$")
CACHE_ENV_VAR = "TRIPOS_OEIS_CACHE"
OEIS_HOST = "https://oeis.org"
FETCH_TIMEOUT_S = 30.0


class BFile(Record):
    """Parsed b-file: contiguous (index, value) pairs for one OEIS id."""

    id: str
    entries: tuple[tuple[int, int], ...]

    @property
    def values(self) -> list[int]:
        return [v for _, v in self.entries]


def parse_bfile(text: str, oid: str = "") -> BFile:
    """Parse b-file text: blank lines and '#' comments are skipped, every
    other line must be '<index> <value>' and indices must be contiguous."""
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"line {lineno}: expected '<index> <value>', got {raw!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise BFileError(f"line {lineno}: {exc}") from exc
        if entries and idx != entries[-1][0] + 1:
            raise ContiguityError(
                f"line {lineno}: index {idx} does not follow {entries[-1][0]}"
            )
        entries.append((idx, val))
    if not entries:
        raise BFileError("b-file contains no data lines")
    return BFile(oid, tuple(entries))


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """Resolution order: explicit argument, environment variable, user cache."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tripos" / "oeis"


def bfile_url(oid: str) -> str:
    return f"{OEIS_HOST}/{oid}/b{oid[1:]}.txt"


def fetch_bfile(
    oid: str,
    cache_dir: str | os.PathLike | None = None,
    offline: bool = False,
) -> BFile:
    """Return the b-file for an id, from cache if warm, otherwise over HTTPS.

    Offline mode never touches the network: a cache miss is an explicit
    error.  A download that fails, waits more than ``FETCH_TIMEOUT_S``
    seconds for the server or is cut short raises ``FetchError`` and caches
    nothing.  Downloads are stored verbatim before parsing, atomically, so
    a concurrent fetch of the same id cannot leave a torn file behind.  A
    cached file or download that cannot be read as text, or a cache that
    cannot be written, raises ``BFileError``.
    """
    if not _ID_RE.match(oid):
        raise BFileError(f"not a valid OEIS id: {oid!r} (expected A followed by 6 digits)")
    cache = resolve_cache_dir(cache_dir)
    path = cache / f"{oid}.txt"
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise BFileError(f"cannot read cached b-file {path}: {exc}") from exc
        return parse_bfile(text, oid)
    if offline:
        raise CacheMissError(f"offline cache miss: {path} does not exist")
    # The HTTP stack (ssl, email parsing) costs a third of a cold start and
    # only a download needs it, so it loads here rather than at import.
    import http.client
    import urllib.error
    import urllib.request

    url = bfile_url(oid)
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
            data = resp.read()
    except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
        raise FetchError(f"could not retrieve {url}: {exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise BFileError(f"{url} is not UTF-8 text: {exc}") from exc
    parsed = parse_bfile(text, oid)  # reject malformed downloads before caching
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=f".{oid}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise BFileError(f"cannot write b-file cache {path}: {exc}") from exc
    return parsed


def _whole_rows(total: int, arity: int) -> tuple[int, int]:
    """Count the whole rows of width arity*n + 1 in ``total`` entries and the entries they use."""
    if arity < 1:
        raise ReshapeError("arity must be a positive integer")
    rows = used = 0
    while used + arity * rows + 1 <= total:
        used += arity * rows + 1
        rows += 1
    return rows, used


def reshape(b: BFile, arity: int) -> Triangle:
    """Cut a row-by-row flattened triangle back into rows of width arity*n + 1."""
    values = b.values
    rows, used = _whole_rows(len(values), arity)
    if used < len(values):
        raise ReshapeError(
            f"{len(values)} values do not fill whole rows of arity {arity}: "
            f"{len(values) - used} left over after {rows} complete rows"
        )
    it = iter(values)
    return Triangle(tuple(tuple(islice(it, arity * n + 1)) for n in range(rows)), arity)


def trim_to_rows(b: BFile, arity: int) -> BFile:
    """Drop a trailing partial row so the entries reshape cleanly.

    Published b-files usually stop mid-row; the fully available rows are
    still checkable, so ingestion trims to the largest whole-row prefix.
    """
    _, used = _whole_rows(len(b.entries), arity)
    if used == 0:
        raise ReshapeError("not even one complete row of data")
    return BFile(b.id, b.entries[:used])
