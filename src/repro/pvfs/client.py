"""Typed PVFS metadata client with replica failover."""

from __future__ import annotations

from typing import Generator

from repro.aa.client import ReplicatedClient
from repro.net.address import Address
from repro.net.network import Network
from repro.pvfs.metadata import FileAttr
from repro.pvfs.wire import (
    Create,
    GetAttr,
    Mkdir,
    ReadDir,
    Rename,
    Rmdir,
    SetAttr,
    StatFs,
    Unlink,
)

__all__ = ["PVFSClient"]


class PVFSClient:
    """Metadata operations against any replica of the MDS group."""

    def __init__(
        self,
        network: Network,
        node: str,
        replicas: list[Address],
    ):
        self._rc = ReplicatedClient(network, node, replicas)

    @property
    def stats(self) -> dict:
        return self._rc.stats

    def mkdir(self, path: str) -> Generator:
        attr: FileAttr = yield from self._rc.call(Mkdir(path))
        return attr

    def create(self, path: str) -> Generator:
        attr: FileAttr = yield from self._rc.call(Create(path))
        return attr

    def getattr(self, path: str) -> Generator:
        attr: FileAttr = yield from self._rc.call(GetAttr(path))
        return attr

    def setattr(self, path: str, *, size: int) -> Generator:
        attr: FileAttr = yield from self._rc.call(SetAttr(path, size))
        return attr

    def readdir(self, path: str) -> Generator:
        names: list[str] = yield from self._rc.call(ReadDir(path))
        return names

    def unlink(self, path: str) -> Generator:
        yield from self._rc.call(Unlink(path))

    def rmdir(self, path: str) -> Generator:
        yield from self._rc.call(Rmdir(path))

    def rename(self, src: str, dst: str) -> Generator:
        yield from self._rc.call(Rename(src, dst))

    def statfs(self) -> Generator:
        stats: dict = yield from self._rc.call(StatFs())
        return stats
