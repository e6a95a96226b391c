"""Unit tests for the PVFS metadata store substrate."""

import pytest

from repro.pvfs.metadata import (
    AlreadyExists,
    DirectoryNotEmpty,
    InvalidPath,
    IsADirectory,
    MetadataStore,
    NotADirectory,
    NotFound,
    PVFSError,
    split_path,
)


@pytest.fixture
def store():
    store = MetadataStore()
    store.stripe_width = 2
    return store


class TestPaths:
    def test_split(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]
        assert split_path("/") == []
        assert split_path("//a//b/") == ["a", "b"]

    def test_relative_rejected(self):
        with pytest.raises(InvalidPath):
            split_path("a/b")

    def test_dots_rejected(self):
        with pytest.raises(InvalidPath):
            split_path("/a/../b")
        with pytest.raises(InvalidPath):
            split_path("/a/./b")


class TestMkdirCreate:
    def test_mkdir(self, store):
        attr = store.mkdir("/proj")
        assert attr.kind == "dir"
        assert store.readdir("/") == ["proj"]

    def test_nested_mkdir(self, store):
        store.mkdir("/a")
        store.mkdir("/a/b")
        assert store.readdir("/a") == ["b"]

    def test_mkdir_missing_parent(self, store):
        with pytest.raises(NotFound):
            store.mkdir("/a/b")

    def test_mkdir_exists(self, store):
        store.mkdir("/a")
        with pytest.raises(AlreadyExists):
            store.mkdir("/a")

    def test_mkdir_root_rejected(self, store):
        with pytest.raises(InvalidPath):
            store.mkdir("/")

    def test_create_allocates_stripes(self, store):
        attr = store.create("/f")
        assert attr.kind == "file"
        assert len(attr.dfiles) == 2
        assert len(set(attr.dfiles)) == 2

    def test_create_under_file_rejected(self, store):
        store.create("/f")
        with pytest.raises(NotADirectory):
            store.create("/f/child")

    def test_handles_strictly_increasing(self, store):
        a = store.create("/a")
        b = store.create("/b")
        assert b.handle > a.handle
        assert min(b.dfiles) > max(a.dfiles)

    def test_timestamps_recorded(self, store):
        attr = store.create("/f", now=42.0)
        assert attr.ctime == 42.0 and attr.mtime == 42.0


class TestGetSetAttr:
    def test_getattr_file_and_dir(self, store):
        store.mkdir("/d")
        store.create("/d/f")
        assert store.getattr("/d").kind == "dir"
        assert store.getattr("/d/f").kind == "file"
        assert store.getattr("/").handle == MetadataStore.ROOT_HANDLE

    def test_getattr_missing(self, store):
        with pytest.raises(NotFound):
            store.getattr("/nope")

    def test_setattr_size(self, store):
        store.create("/f")
        attr = store.setattr("/f", size=1024, now=1.0)
        assert attr.size == 1024
        assert attr.mtime == 1.0

    def test_setattr_dir_rejected(self, store):
        store.mkdir("/d")
        with pytest.raises(IsADirectory):
            store.setattr("/d", size=1)

    def test_setattr_negative_rejected(self, store):
        store.create("/f")
        with pytest.raises(PVFSError):
            store.setattr("/f", size=-1)

    def test_dir_size_is_entry_count(self, store):
        store.mkdir("/d")
        store.create("/d/a")
        store.create("/d/b")
        assert store.getattr("/d").size == 2


class TestReaddir:
    def test_sorted_listing(self, store):
        store.mkdir("/d")
        for name in ("zeta", "alpha", "mid"):
            store.create(f"/d/{name}")
        assert store.readdir("/d") == ["alpha", "mid", "zeta"]

    def test_readdir_file_rejected(self, store):
        store.create("/f")
        with pytest.raises(NotADirectory):
            store.readdir("/f")


class TestUnlinkRmdir:
    def test_unlink(self, store):
        store.create("/f")
        store.unlink("/f")
        assert store.readdir("/") == []
        with pytest.raises(NotFound):
            store.getattr("/f")

    def test_unlink_dir_rejected(self, store):
        store.mkdir("/d")
        with pytest.raises(IsADirectory):
            store.unlink("/d")

    def test_rmdir(self, store):
        store.mkdir("/d")
        store.rmdir("/d")
        assert store.readdir("/") == []

    def test_rmdir_nonempty_rejected(self, store):
        store.mkdir("/d")
        store.create("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            store.rmdir("/d")

    def test_rmdir_file_rejected(self, store):
        store.create("/f")
        with pytest.raises(NotADirectory):
            store.rmdir("/f")

    def test_unlink_missing(self, store):
        with pytest.raises(NotFound):
            store.unlink("/ghost")


class TestRename:
    def test_simple_rename(self, store):
        store.create("/a")
        store.rename("/a", "/b")
        assert store.readdir("/") == ["b"]

    def test_move_between_dirs(self, store):
        store.mkdir("/src")
        store.mkdir("/dst")
        store.create("/src/f")
        store.rename("/src/f", "/dst/g")
        assert store.readdir("/src") == []
        assert store.readdir("/dst") == ["g"]

    def test_rename_preserves_handle(self, store):
        attr = store.create("/a")
        store.rename("/a", "/b")
        assert store.getattr("/b").handle == attr.handle

    def test_rename_overwrites_file(self, store):
        store.create("/a")
        store.create("/b")
        store.rename("/a", "/b")
        assert store.readdir("/") == ["b"]

    def test_rename_onto_nonempty_dir_rejected(self, store):
        store.mkdir("/a")
        store.mkdir("/b")
        store.create("/b/x")
        with pytest.raises(DirectoryNotEmpty):
            store.rename("/a", "/b")

    def test_rename_dir_onto_empty_dir(self, store):
        store.mkdir("/a")
        store.create("/a/x")
        store.mkdir("/b")
        store.rename("/a", "/b")
        assert store.readdir("/b") == ["x"]

    def test_rename_into_own_subtree_rejected(self, store):
        store.mkdir("/a")
        store.mkdir("/a/b")
        with pytest.raises(InvalidPath):
            store.rename("/a", "/a/b/c")

    def test_rename_missing_source(self, store):
        with pytest.raises(NotFound):
            store.rename("/ghost", "/b")


class TestSnapshotRestore:
    def test_roundtrip(self, store):
        store.mkdir("/d")
        store.create("/d/f")
        store.setattr("/d/f", size=7)
        state = store.snapshot()
        other = MetadataStore()
        other.restore(state)
        assert other.statfs() == store.statfs()
        assert other.readdir("/d") == ["f"]
        assert other.getattr("/d/f").size == 7

    def test_snapshot_isolated_from_mutation(self, store):
        store.mkdir("/d")
        state = store.snapshot()
        store.create("/d/later")
        other = MetadataStore()
        other.restore(state)
        assert other.readdir("/d") == []

    def test_handle_counter_restored(self, store):
        store.create("/a")
        other = MetadataStore()
        other.restore(store.snapshot())
        a2 = other.create("/b")
        a1 = store.create("/b")
        assert a1.handle == a2.handle  # counters aligned: determinism holds

    def test_statfs_counts(self, store):
        store.mkdir("/d")
        store.create("/d/f")
        stats = store.statfs()
        assert stats["files"] == 1
        assert stats["directories"] == 2  # root + /d
