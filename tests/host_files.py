"""Generated texts of host files, for the parser and the CLI's exit codes."""

from itertools import combinations

from hypothesis import strategies as st

# one defect that makes a file invalid, or None for a valid file
FAULTS = (None, None, None, "duplicate", "out of range", "negative",
          "short row", "long row", "repeated vertex", "no header",
          "bad header", "junk token", "k = 1")


@st.composite
def host_texts(draw, ks=st.integers(2, 4), max_n=9):
    """A serialized random k-graph, sometimes with its lines shuffled, its
    edges reversed, its tokens written with leading zeros or a ``+``, tabs
    or runs of spaces between them, comments, blank lines and CRLF line
    ends; sometimes with one of FAULTS."""
    k = draw(ks)
    n = draw(st.integers(0, max_n))
    cand = list(combinations(range(n), k))
    edges = sorted(draw(st.sets(st.sampled_from(cand), max_size=25))) if cand else []
    rows = [[str(v) for v in e] for e in edges]
    if draw(st.booleans()):
        rows = list(draw(st.permutations(rows)))
    if draw(st.booleans()):
        rows = [r[::-1] if draw(st.booleans()) else r for r in rows]
    header = [str(k), str(n)]
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, max(len(rows) - 1, 0)))
    if fault == "duplicate" and rows:
        rows.insert(draw(st.integers(0, len(rows))), rows[at][::-1])
    elif fault in ("out of range", "negative") and rows:
        rows[at][-1] = str(n + draw(st.integers(0, 3))) if fault == "out of range" else "-1"
    elif fault == "short row" and rows:
        rows[at] = rows[at][:-1]
    elif fault == "long row":
        rows.insert(at, [str(v % max(n, 1)) for v in range(k + 1)])
    elif fault == "repeated vertex" and rows:
        rows[at][-1] = rows[at][0]
    elif fault == "bad header":
        header = draw(st.sampled_from([[str(k)], header + ["1"], ["3", "x"], ["3", "-1"]]))
    elif fault == "junk token" and rows:
        rows[at][0] = draw(st.sampled_from(["x", "1.0", "0x1", "#1"]))
    elif fault == "k = 1":
        header = ["1", str(n)]
        rows = [[v] for v in dict.fromkeys(r[0] for r in rows)]
    lines = [header] + rows if fault != "no header" else rows
    if draw(st.booleans()):
        # leading zeros and plus signs still read as the same integers
        lines = [[draw(st.sampled_from(["", "0", "00", "+"])) + t for t in line]
                 for line in lines]
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
    text = [sep.join(line) for line in lines]
    for extra in draw(st.lists(st.sampled_from(["", "  ", "\t", "# note", "#1 2 3",
                                                "  # 0 1 2"]), max_size=4)):
        text.insert(draw(st.integers(0, len(text))), extra)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(text) + draw(st.sampled_from(["", eol]))
