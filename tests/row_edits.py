"""One drawn edit of a saved model, profile or signal file, and the loader's answer to it.

The net, polynomial, amplifier-profile and signal files are header lines
followed by ``key,value,...`` rows that give every key exactly once. Whatever
the format, its loader must give back the saved bytes, refuse a file with a
line dropped, repeated or cut off, and read a ``#`` line as no line at all.
A signal file states no length: its n rows are indexed 0..n-1, so a file cut
after a row reads as the shorter signal.
"""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import strategies as st

from dpdkit.errors import FormatError

COMMENTS = st.text(alphabet="abc 0.9,:=#-", max_size=20).map(lambda s: "#" + s)


def check_row_edits(data, obj, save, load, n_header: int, n_values: int, sized: bool = True) -> None:
    """Save ``obj``, then check the loader on the saved file and on drawn edits of it.

    ``n_header`` is the number of header lines the saved file starts with, and
    ``n_values`` the number of values that end each of its rows. ``sized`` is
    False for a format whose length is its number of rows.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "saved.txt", Path(tmp) / "again.txt"

        def load_lines(lines):
            path.write_text("".join(line + "\n" for line in lines))
            return load(path)

        save(obj, path)
        text = path.read_text()
        lines = text.splitlines()

        # save -> load -> save gives the same bytes
        save(load(path), again)
        assert again.read_text() == text

        # a missing line is an error; a missing row names its key, or, in a file without a
        # size, leaves the last row's index out of range (a missing last row is a cut)
        drop = data.draw(st.integers(0, len(lines) - 1 - (not sized)), label="drop")
        key = ",".join(lines[drop].split(",")[:-n_values])
        where = f"missing row {key!r}" if sized else f"{path.name}:{len(lines) - 1}:"
        match = re.escape(where) if drop >= n_header else None
        with pytest.raises(FormatError, match=match):
            load_lines(lines[:drop] + lines[drop + 1 :])

        # a repeated line is an error at the later of its two lines
        copy = data.draw(st.integers(0, len(lines) - 1), label="copy")
        at = data.draw(st.integers(n_header, len(lines)), label="at")
        later = copy + 2 if at <= copy else at + 1
        with pytest.raises(FormatError, match=re.escape(f"{path.name}:{later}:")):
            load_lines(lines[:at] + [lines[copy]] + lines[at:])

        # a file cut off after any line, the header's last included, is an error; without a
        # size, a file cut after a row reads as the rows it keeps
        cut = data.draw(st.integers(0, len(lines) - 1), label="cut")
        if sized or cut <= n_header:
            with pytest.raises(FormatError):
                load_lines(lines[:cut])
        else:
            save(load_lines(lines[:cut]), again)
            assert again.read_text() == path.read_text()

        # a comment line anywhere reads as no line
        at = data.draw(st.integers(0, len(lines)), label="comment_at")
        save(load_lines(lines[:at] + [data.draw(COMMENTS)] + lines[at:]), again)
        assert again.read_text() == text
