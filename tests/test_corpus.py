"""Structured CLI output against the committed corpus (``tests/data``).

Where the environment matches the corpus's fingerprint, every case must
reproduce stdout, stderr and exit code byte for byte.  Elsewhere numpy's
SIMD paths or the BLAS kernels may round differently, so stdout is compared
parsed: every non-float exactly, every float within ``ULPS`` ulps of its
report's largest magnitude (``make_corpus.report_unit``), the unit in
which residuals such as ``discrepancy`` and ``max_violation`` round.  Exit
code and stderr stay exact.  ``make_corpus.py`` rewrites the corpus and
lists what moved.
"""

import json

import make_corpus

ULPS = 4


def test_structured_output_matches_the_corpus(record_property):
    corpus = json.loads(make_corpus.CORPUS.read_text(encoding="utf-8"))
    mode = "bytes" if corpus["fingerprint"] == make_corpus.fingerprint() else f"parsed, {ULPS} ulps"
    record_property("corpus_mode", mode)
    print(f"structured-output corpus compared in {mode} mode")
    assert [case["argv"] for case in corpus["cases"]] == make_corpus.cases()

    moved = []
    for old, new in zip(corpus["cases"], make_corpus.replay()):
        if mode == "bytes" and new == old:
            continue
        diffs = make_corpus.case_diffs(old, new)
        if mode == "bytes":
            diffs = diffs or [("stdout", "bytes differ", "same parsed values", None)]
        else:
            unit = make_corpus.report_unit(old["stdout"])
            diffs = [d for d in diffs if d[3] is None or abs(d[1] - d[2]) > ULPS * unit]
        moved += [f"{' '.join(old['argv'])} | {path}: {a!r} -> {b!r} ({n} ulps)" for path, a, b, n in diffs]
    assert not moved, f"{mode} mode: " + "\n".join(moved)
