"""Seam-respecting writes (repro-lint test fixture): zero new findings.

The suppressed unsynced rename exercises the standalone previous-line
comment form of the suppression syntax.
"""


def finalize(fs, path, tmp_path, payload):
    """The blessed pattern: write temp, flush+fsync, rename."""
    handle = fs.open(tmp_path, "wb")
    try:
        handle.write(payload)
        fs.fsync(handle)
    finally:
        handle.close()
    fs.replace(tmp_path, path)


def conditional_fsync(fs, path, tmp_path, payload, durable):
    """A config-gated fsync still satisfies DUR002 (durability levels)."""
    handle = fs.open(tmp_path, "wb")
    try:
        handle.write(payload)
        if durable:
            fs.fsync(handle)
    finally:
        handle.close()
    fs.replace(tmp_path, path)


def read_only(path):
    """Read-mode open never needs the seam."""
    with open(path, "rb") as handle:
        return handle.read()


def legacy_debug_dump(fs, path, tmp_path, text):
    """A justified unsynced rename, suppressed on the line above."""
    handle = fs.open(tmp_path, "w")
    try:
        handle.write(text)
    finally:
        handle.close()
    # repro-lint: disable=DUR002
    fs.replace(tmp_path, path)
    return "x".replace("a", "b")  # str.replace is not fs.replace
