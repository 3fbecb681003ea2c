package tidb

import "dichotomy/internal/recovery"

// Region-replica crash/recover surface. The unit of failure is one
// replica of one region — a TiKV store losing one raft member — not a
// whole-node ledger: recovery is per-region raft-log replay on top of
// that region's own checkpoint chain, never a global pause. The
// lifecycle itself is system.Group's; these forward to it.

// CrashReplica fail-stops one replica of one region (system.Group.Crash).
// The region keeps committing as long as a raft quorum of replicas
// remains.
func (c *Cluster) CrashReplica(region, replica int) { c.regions[region].Crash(replica) }

// RecoverReplica restarts a crashed replica (system.Group.Recover). What
// the restored checkpoint holds includes live Percolator locks — the
// chain serializes them — so a commit or rollback replicated after the
// checkpoint height still finds its lock.
func (c *Cluster) RecoverReplica(region, replica int) (recovery.Stats, error) {
	return c.regions[region].Recover(replica)
}

// Regions returns the region count (test/experiment surface).
func (c *Cluster) Regions() int { return len(c.regions) }

// RegionReplicas returns how many replicas region has.
func (c *Cluster) RegionReplicas(region int) int { return c.regions[region].Replicas() }

// ReplicaApplied returns the newest raft index the replica has applied
// (or restored); convergence checks poll it.
func (c *Cluster) ReplicaApplied(region, replica int) uint64 {
	return c.regions[region].Applied(replica)
}

// DumpRegion returns one replica's complete encoded MVCC content —
// full version chains and any live locks, one deterministic record per
// key (system.Group.Dump).
func (c *Cluster) DumpRegion(region, replica int) map[string][]byte {
	return c.regions[region].Dump(replica)
}
