"""A rename before fsync (repro-lint test fixture): DUR002.

Lives under a ``repro/storage/`` directory because the durability rule
only polices the write path.
"""


def rewrite_without_fsync(fs, path, tmp_path, payload):
    """Atomic-looking finalization that skips the fsync."""
    handle = fs.open(tmp_path, "wb")
    try:
        handle.write(payload)
    finally:
        handle.close()
    fs.replace(tmp_path, path)  # expect: DUR002
