"""Fixture handle lifetimes for RES001 (FileSystem-seam handles)."""


def scoped_write(fs, path, data):
    """Accepted lifetime 1: the with-statement."""
    with fs.open(path, "wb") as handle:
        handle.write(data)


def finally_closed(fs, path, data):
    """Accepted lifetime 2: close on every path via finally."""
    handle = fs.open(path, "wb")
    try:
        handle.write(data)
    finally:
        handle.close()


class HandleOwner:
    """Accepted lifetime 3: object-owned, closed by the owner."""

    def __init__(self, fs, path):
        self._file = fs.open(path, "ab")

    def close(self):
        self._file.close()


class HandleCacheOwner:
    """Accepted lifetime 3 again: a slot of a container the object owns."""

    def __init__(self, fs):
        self._fs = fs
        self._files = {}

    def handle(self, path):
        if path not in self._files:
            self._files[path] = self._fs.open(path, "rb")
        return self._files[path]

    def close(self):
        for handle in self._files.values():
            handle.close()


def local_container_is_not_owned(fs, paths):
    handles = {}
    for path in paths:
        handles[path] = fs.open(path, "rb")  # expect: RES001
    return handles


def happy_path_close(fs, path, data):
    handle = fs.open(path, "wb")  # expect: RES001
    handle.write(data)
    handle.close()


def never_closed(fs, path):
    handle = fs.open(path, "rb")  # expect: RES001
    return handle.read()


def never_bound(fs, path):
    return parse(fs.open(path, "rb"))  # expect: RES001


def parse(handle):
    return handle.read()


def other_receivers_are_ignored(codec, path):
    """``open`` on something that is not a FileSystem is out of scope."""
    return codec.open(path)
