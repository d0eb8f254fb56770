"""A sysfs-style device file tree.

The firmware abstracts every control plane as a file subtree (PARD Fig. 6,
§5.1). This module provides the generic tree: directories plus leaf files
whose reads and writes are delegated to handler callables. The firmware
wires leaves to CPA driver accesses, so ``cat``/``echo`` on these paths
are real register-protocol transactions.

Paths are POSIX-style absolute strings (``/sys/cpa/cpa0/ldoms/ldom0/
parameters/waymask``).

A directory is a plain ``dict`` from entry name to child; a file is a
``(read_handler, write_handler)`` pair. Every insertion resolves (or
creates) its directory in one walk from ``/`` and then attaches entries
to that node, so :meth:`SysfsTree.add_tree` builds a whole subtree --
an LDom's ``parameters``, ``statistics`` and ``triggers`` with every
column file -- without one path walk per file.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

ReadHandler = Callable[[], str]
WriteHandler = Callable[[str], None]
# A file's handlers; either may be None (write-only or read-only).
FileHandlers = tuple[Optional[ReadHandler], Optional[WriteHandler]]
# What add_tree attaches: entry name -> a nested tree (a directory) or a
# file's handlers.
Tree = Mapping[str, Union["Tree", FileHandlers]]


class SysfsError(OSError):
    """Missing paths, type mismatches (dir vs file), or read-only writes."""


class SysfsTree:
    """The mounted device file tree."""

    def __init__(self) -> None:
        self._root: dict = {}

    # -- construction (used by the firmware) ---------------------------------

    def add_tree(self, path: str, tree: Tree) -> None:
        """Create directory ``path`` (mkdir -p) and attach ``tree`` to it.

        Each entry of ``tree`` is either a nested tree, merged into the
        directory of that name (made if missing), or a file's
        ``(read_handler, write_handler)`` pair, which must not exist yet.
        """
        parts = self._parts(path)
        _attach(self._dir(parts), tree, parts)

    def mkdir(self, path: str) -> None:
        """Create a directory, making parents as needed (mkdir -p)."""
        self.add_tree(path, {})

    def add_file(
        self,
        path: str,
        read_handler: Optional[ReadHandler] = None,
        write_handler: Optional[WriteHandler] = None,
    ) -> None:
        parts = self._parts(path)
        if not parts:
            raise SysfsError("cannot create a file at /")
        parent = parts[:-1]
        _attach(self._dir(parent), {parts[-1]: (read_handler, write_handler)}, parent)

    def remove(self, path: str) -> None:
        parts = self._parts(path)
        if not parts:
            raise SysfsError("cannot remove /")
        parent = self._lookup(parts[:-1])
        if type(parent) is not dict or parent.pop(parts[-1], None) is None:
            raise SysfsError(f"{path} does not exist")

    # -- access (used by shell commands and handler scripts) --------------------

    def exists(self, path: str) -> bool:
        try:
            self._lookup(self._parts(path))
            return True
        except SysfsError:
            return False

    def is_dir(self, path: str) -> bool:
        return type(self._lookup(self._parts(path))) is dict

    def listdir(self, path: str) -> list[str]:
        node = self._lookup(self._parts(path))
        if type(node) is not dict:
            raise SysfsError(f"{path} is not a directory")
        return list(node)

    def read(self, path: str) -> str:
        node = self._lookup(self._parts(path))
        if type(node) is dict:
            raise SysfsError(f"{path} is a directory")
        read_handler = node[0]
        if read_handler is None:
            raise SysfsError(f"{path} is not readable")
        return read_handler()

    def write(self, path: str, value: str) -> None:
        node = self._lookup(self._parts(path))
        if type(node) is dict:
            raise SysfsError(f"{path} is a directory")
        write_handler = node[1]
        if write_handler is None:
            raise SysfsError(f"{path} is read-only")
        write_handler(value)

    # -- internals ------------------------------------------------------------------

    @staticmethod
    def _parts(path: str) -> list[str]:
        if not path.startswith("/"):
            raise SysfsError(f"path must be absolute: {path!r}")
        return [p for p in path.split("/") if p]

    def _dir(self, parts: list[str]) -> dict:
        """The directory at ``parts``, made with its parents if missing."""
        node = self._root
        for part in parts:
            child = node.get(part)
            if child is None:
                child = node[part] = {}
            elif type(child) is not dict:
                raise SysfsError(f"{part!r} in /{'/'.join(parts)} is not a directory")
            node = child
        return node

    def _lookup(self, parts: list[str]):
        node = self._root
        for part in parts:
            if type(node) is not dict or part not in node:
                raise SysfsError(f"no such path: /{'/'.join(parts)}")
            node = node[part]
        return node


def _attach(node: dict, tree: Tree, parts: list[str]) -> None:
    """Add ``tree``'s entries to ``node``, the directory at ``parts``."""
    for name, entry in tree.items():
        existing = node.get(name)
        if type(entry) is tuple:
            if existing is not None:
                raise SysfsError(f"/{'/'.join([*parts, name])} already exists")
            node[name] = entry
            continue
        if existing is None:
            existing = node[name] = {}
        elif type(existing) is not dict:
            raise SysfsError(f"/{'/'.join([*parts, name])} exists and is not a directory")
        _attach(existing, entry, [*parts, name])
