"""sha256 digests of whole CLI records, the form in which CI and tests/test_cli.py pin payloads.

A request runs in this process with --format json.  Its record loses elapsed_ms, and a verify
record's spec path loses its directory; json.dumps with sorted keys is what is hashed.  One
request's digest is that of its dumped record; a set's digest is that of one line per request,
"<exit code> <dumped record>", joined by newlines.

    PYTHONPATH=src python tests/payload_digest.py zero --prime 19 --ell 302

prints one request's digest and exits with the request's exit code.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from tribadic.cli import main


def record(argv):
    """(exit code, JSON record without elapsed_ms) of one CLI request."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--format", "json"])
    rec = json.loads(buf.getvalue())
    del rec["elapsed_ms"]
    if "spec" in rec["params"]:
        rec["params"]["spec"] = os.path.basename(rec["params"]["spec"])  # a temporary directory aside
    return code, rec


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(requests):
    """(sha256 over the lines "<code> <record>" of requests, in order, and their exit codes)."""
    lines, codes = [], []
    for argv in requests:
        code, rec = record(argv)
        lines.append(f"{code} {json.dumps(rec, sort_keys=True)}")
        codes.append(code)
    return sha256("\n".join(lines)), codes


if __name__ == "__main__":
    code, rec = record(sys.argv[1:])
    print(sha256(json.dumps(rec, sort_keys=True)))
    sys.exit(code)
