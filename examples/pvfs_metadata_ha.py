#!/usr/bin/env python3
"""Beyond the scheduler: a highly available PVFS metadata server.

The paper's generality claim (§1) — the symmetric active/active model
"is applicable to any deterministic HPC system service, such as to the
metadata server of the parallel virtual file system (PVFS)" — and its §6
follow-on work, demonstrated: the same replication wrapper that powers
JOSHUA replicates a PVFS-like metadata service with zero service-specific
replication code.

A simulation campaign creates its output tree, metadata replicas die and a
fresh one joins live, and the namespace stays consistent and available
throughout.

Run:  python examples/pvfs_metadata_ha.py
"""

from repro.cluster import Cluster
from repro.pvfs import PVFSClient, build_replicated_mds


def main() -> None:
    cluster = Cluster(head_count=3, compute_count=0, login_node=True, seed=404)
    mds = build_replicated_mds(cluster)
    kernel = cluster.kernel
    client = PVFSClient(cluster.network, "login", mds.addresses())
    print(f"replicated PVFS MDS on {mds.head_names}")

    def build_tree():
        yield from client.mkdir("/scratch")
        yield from client.mkdir("/scratch/climate-run")
        for step in range(5):
            yield from client.create(f"/scratch/climate-run/step{step:03d}.nc")
            yield from client.setattr(
                f"/scratch/climate-run/step{step:03d}.nc", size=(step + 1) * 2**20
            )
        return (yield from client.readdir("/scratch/climate-run"))

    listing = cluster.run(until=kernel.spawn(build_tree()))
    print(f"[t={kernel.now:5.2f}s] wrote {len(listing)} files: {listing}")

    print(f"[t={kernel.now:5.2f}s] *** head0 (a metadata replica) crashes ***")
    cluster.node("head0").crash()
    cluster.run(until=kernel.now + 2.0)

    def keep_working():
        yield from client.rename(
            "/scratch/climate-run/step000.nc", "/scratch/climate-run/spinup.nc"
        )
        yield from client.create("/scratch/climate-run/restart.ckpt")
        return (yield from client.statfs())

    stats = cluster.run(until=kernel.spawn(keep_working()))
    print(f"[t={kernel.now:5.2f}s] namespace still writable after the crash: {stats}")

    print(f"[t={kernel.now:5.2f}s] joining a fresh replica head3 "
          "(snapshot state transfer) ...")
    mds.add_replica()  # head3
    while not mds.replica("head3").active:
        cluster.run(until=kernel.now + 0.5)
    print(f"[t={kernel.now:5.2f}s] head3 active")

    cluster.run(until=kernel.now + 1.0)
    listings = {
        head: mds.backend(head).store.readdir("/scratch/climate-run")
        for head in mds.live_heads()
    }
    reference = next(iter(listings.values()))
    for head, names in listings.items():
        marker = "==" if names == reference else "!!"
        print(f"  {head}: {len(names)} entries {marker}")
        assert names == reference, "replica divergence"
    print("\nall live replicas hold an identical namespace — same wrapper, "
          "different service.")


if __name__ == "__main__":
    main()
