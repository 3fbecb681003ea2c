package spanner

import "dichotomy/internal/recovery"

// Shard-replica crash/recover surface. The unit of failure is one raft
// member of one shard — recovery is per-shard log replay on top of that
// replica's own checkpoint chain, never a global pause. The shard's lock
// table is client-side coordination state and is untouched by replica
// crashes, exactly as a lock service survives a storage-replica failure.
// The lifecycle itself is system.Group's; these forward to it.

// CrashReplica fail-stops one replica of one shard (system.Group.Crash).
// The shard keeps committing as long as a raft quorum remains.
func (c *Cluster) CrashReplica(shard, replica int) { c.shards[shard].Crash(replica) }

// RecoverReplica restarts a crashed replica (system.Group.Recover). What
// the restored checkpoint holds includes the prepared 2PC write sets, so
// an in-flight 2PC decided after the crash still lands.
func (c *Cluster) RecoverReplica(shard, replica int) (recovery.Stats, error) {
	return c.shards[shard].Recover(replica)
}

// Shards returns the shard count (test/experiment surface).
func (c *Cluster) Shards() int { return len(c.shards) }

// ShardReplicas returns how many replicas shard has.
func (c *Cluster) ShardReplicas(shard int) int { return c.shards[shard].Replicas() }

// ReplicaApplied returns the newest raft index the replica has applied
// (or restored); convergence checks poll it.
func (c *Cluster) ReplicaApplied(shard, replica int) uint64 {
	return c.shards[shard].Applied(replica)
}

// DumpShard returns one replica's complete content in checkpoint-record
// form — committed values ('s' prefix) and prepared 2PC write sets ('p'
// prefix) (system.Group.Dump).
func (c *Cluster) DumpShard(shard, replica int) map[string][]byte {
	return c.shards[shard].Dump(replica)
}
