// Package durable gives storage nodes a persistence tier: a write-ahead log
// of partition mutations plus fuzzy checkpoints of the memtable, both kept
// as named objects behind a pluggable Backend. Two backends ship with the
// package — a local filesystem implementation for real deployments and an
// in-memory remote-blob model (S3/DynamoDB-style latency, deterministic
// under simulation) for experiments.
//
// The durability contract follows RamCloud's recovery design (§6.1 of the
// paper): a master logs every mutation to a durable backup before
// acknowledging, checkpoints bound replay length, and after the master dies
// its log is scattered across surviving nodes and replayed in parallel.
// Because replicas and recovered masters apply mutations if-newer by stamp,
// replaying an overlapping checkpoint-plus-log suffix in any order converges
// to the pre-crash state.
//
// All blocking work is charged through env.Ctx, so the package is safe for
// the deterministic simulator: no wall clock, no unseeded randomness.
package durable

import (
	"errors"

	"tell/internal/env"
)

// ErrNotExist is returned by Get when the named object has never been made
// durable.
var ErrNotExist = errors.New("durable: object does not exist")

// Backend is a named-object store with append semantics. Names are
// slash-separated paths; callers namespace them per storage node so that a
// survivor can read a dead node's objects during recovery.
//
// Append/Sync model a staged upload: appended bytes become durable (visible
// to Get and crash-surviving) only once Sync returns. Put is atomic — a
// crash concurrent with Put leaves either the old object or the new one,
// never a mix. These are exactly the boundaries the crash-point test
// harness enumerates.
//
// Put and Append must not retain data after they return: callers reuse the
// buffer (the checkpoint writer encodes every chunk into the same one), so an
// implementation that keeps the bytes copies them.
type Backend interface {
	// Put atomically creates or replaces the object.
	Put(ctx env.Ctx, name string, data []byte) error
	// Append stages data at the end of the object, creating it if needed.
	Append(ctx env.Ctx, name string, data []byte) error
	// Sync makes all staged appends of the object durable.
	Sync(ctx env.Ctx, name string) error
	// Get returns the durable contents of the object.
	Get(ctx env.Ctx, name string) ([]byte, error)
	// List returns the names of durable objects with the given prefix, in
	// lexicographic order.
	List(ctx env.Ctx, prefix string) ([]string, error)
	// Delete removes the object. Deleting a missing object is not an error.
	Delete(ctx env.Ctx, name string) error
}

// Wiper is implemented by backends whose contents can be destroyed
// instantly, modelling a crash that takes the disk with it. It deliberately
// takes no ctx: a disk loss is an event, not an operation the victim
// performs.
type Wiper interface {
	// Wipe removes every object whose name starts with prefix.
	Wipe(prefix string)
}
