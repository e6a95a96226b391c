"""Property-based tests of replicated-state determinism.

The replication argument rests on: deterministic backend + identical
command order ⇒ identical replica state. Hypothesis drives random
metadata-operation scripts (with errors mixed in) and random failure points
through the full replicated stack and asserts the replicas never diverge —
and separately checks the backend itself against a plain-dict model.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.pvfs import PVFSClient, build_replicated_mds
from repro.pvfs.metadata import MetadataStore, PVFSError

# -- backend model check ------------------------------------------------------

names = st.sampled_from(["a", "b", "c", "d"])
op = st.one_of(
    st.tuples(st.just("mkdir"), names),
    st.tuples(st.just("create"), names),
    st.tuples(st.just("unlink"), names),
    st.tuples(st.just("rmdir"), names),
    st.tuples(st.just("rename"), names, names),
)


@settings(max_examples=80, deadline=None)
@given(script=st.lists(op, max_size=30))
def test_metadata_store_matches_flat_model(script):
    """Single-directory operations vs. a dict-of-kinds reference model."""
    store = MetadataStore()
    model: dict[str, str] = {}
    for entry in script:
        kind, args = entry[0], entry[1:]
        path = f"/{args[0]}"
        try:
            if kind == "mkdir":
                store.mkdir(path)
                assert args[0] not in model
                model[args[0]] = "dir"
            elif kind == "create":
                store.create(path)
                assert args[0] not in model
                model[args[0]] = "file"
            elif kind == "unlink":
                store.unlink(path)
                assert model.get(args[0]) == "file"
                del model[args[0]]
            elif kind == "rmdir":
                store.rmdir(path)
                assert model.get(args[0]) == "dir"
                del model[args[0]]
            elif kind == "rename":
                src, dst = args
                store.rename(f"/{src}", f"/{dst}")
                # model semantics: src must exist; dst may be overwritten
                # when kinds are compatible (dirs only onto empty dirs —
                # all dirs here are empty).
                assert src in model
                if dst in model and src != dst:
                    assert model[dst] == model[src]
                value = model.pop(src)
                model[dst] = value
        except PVFSError:
            # The store rejected it; the model must agree it was illegal.
            if kind == "mkdir" or kind == "create":
                assert args[0] in model
            elif kind == "unlink":
                assert model.get(args[0]) != "file"
            elif kind == "rmdir":
                assert model.get(args[0]) != "dir"
            elif kind == "rename":
                src, dst = args
                legal = src in model and (
                    dst not in model or src == dst or model[dst] == model[src]
                )
                assert not legal
    assert store.readdir("/") == sorted(model)


# -- replicated determinism ------------------------------------------------------

mds_op = st.one_of(
    st.tuples(st.just("mkdir"), names),
    st.tuples(st.just("create"), names),
    st.tuples(st.just("unlink"), names),
)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    script=st.lists(mds_op, min_size=1, max_size=10),
    crash_point=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_replicas_never_diverge_under_failure(script, crash_point, seed):
    cluster = Cluster(head_count=3, compute_count=0, login_node=True, seed=seed)
    mds = build_replicated_mds(cluster)
    client = PVFSClient(cluster.network, "login", mds.addresses())
    kernel = cluster.kernel

    def driver():
        for index, (kind, name) in enumerate(script):
            if index == min(crash_point, len(script) - 1) and cluster.node("head0").is_up:
                cluster.node("head0").crash()
            path = f"/{name}"
            try:
                if kind == "mkdir":
                    yield from client.mkdir(path)
                elif kind == "create":
                    yield from client.create(path)
                else:
                    yield from client.unlink(path)
            except Exception:
                pass  # application errors and transient joins are fine

    process = kernel.spawn(driver())
    cluster.run(until=process)
    cluster.run(until=kernel.now + 3.0)

    survivors = [h for h in mds.head_names if cluster.node(h).is_up]
    snapshots = []
    for head in survivors:
        state = mds.backend(head).store.snapshot()
        snapshots.append((sorted(state["inodes"].keys()), state["next_handle"]))
    assert len(set(map(str, snapshots))) == 1, f"divergence: {snapshots}"
