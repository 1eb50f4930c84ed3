package durable

import (
	"sort"
	"strings"
	"time"

	"tell/internal/det"
	"tell/internal/env"
	"tell/internal/sanitize"
)

// BlobProfile models the latency of a remote object store. All delay is
// charged through ctx.Sleep, so a simulated cluster pays the cost in
// virtual time and runs stay deterministic under TELL_SEED.
type BlobProfile struct {
	Name string
	// OpLatency is the fixed round-trip charged per call (request setup,
	// service-side dispatch).
	OpLatency time.Duration
	// MBPerSec is the transfer bandwidth applied to payload bytes
	// (0 = infinite).
	MBPerSec int
}

// S3Profile approximates a same-region object store: ~1ms per call plus
// ~400 MB/s of transfer bandwidth.
func S3Profile() BlobProfile {
	return BlobProfile{Name: "s3", OpLatency: time.Millisecond, MBPerSec: 400}
}

// MemProfile is a zero-latency profile: an in-memory backend for tests that
// exercise durability logic without paying modelled I/O time.
func MemProfile() BlobProfile { return BlobProfile{Name: "mem"} }

// Blob is an in-memory Backend modelling a remote blob store. Appended data
// stays staged until Sync, mirroring a multipart upload that is invisible
// until completed; a crash (Wipe aside) loses staged bytes, never durable
// ones.
type Blob struct {
	prof BlobProfile

	mu      sanitize.Mutex
	objects map[string][]byte
	staged  map[string][]byte
}

// NewBlob returns an empty blob store with the given latency profile.
func NewBlob(prof BlobProfile) *Blob {
	b := &Blob{
		prof:    prof,
		objects: make(map[string][]byte),
		staged:  make(map[string][]byte),
	}
	b.mu.SetName("durable.Blob.mu")
	return b
}

// NewMem returns a zero-latency in-memory backend.
func NewMem() *Blob { return NewBlob(MemProfile()) }

// wait charges the modelled latency for an operation moving n payload bytes.
// It must be called without b.mu held: ctx.Sleep blocks.
func (b *Blob) wait(ctx env.Ctx, n int) {
	d := b.prof.OpLatency
	if b.prof.MBPerSec > 0 {
		d += time.Duration(n) * time.Second / time.Duration(b.prof.MBPerSec<<20)
	}
	if d > 0 {
		ctx.Sleep(d)
	}
}

// Put atomically replaces the object.
func (b *Blob) Put(ctx env.Ctx, name string, data []byte) error {
	b.wait(ctx, len(data))
	b.mu.Lock()
	b.objects[name] = append([]byte(nil), data...)
	delete(b.staged, name)
	b.mu.Unlock()
	return nil
}

// Append stages data at the end of the object.
func (b *Blob) Append(ctx env.Ctx, name string, data []byte) error {
	b.wait(ctx, len(data))
	b.mu.Lock()
	b.staged[name] = append(b.staged[name], data...)
	b.mu.Unlock()
	return nil
}

// Sync promotes the object's staged bytes to durable.
func (b *Blob) Sync(ctx env.Ctx, name string) error {
	b.wait(ctx, 0)
	b.mu.Lock()
	if st := b.staged[name]; len(st) > 0 {
		b.objects[name] = append(b.objects[name], st...)
		delete(b.staged, name)
	}
	b.mu.Unlock()
	return nil
}

// Get returns a copy of the object's durable contents.
func (b *Blob) Get(ctx env.Ctx, name string) ([]byte, error) {
	b.mu.Lock()
	data, ok := b.objects[name]
	if ok {
		data = append([]byte(nil), data...)
	}
	b.mu.Unlock()
	if !ok {
		b.wait(ctx, 0)
		return nil, ErrNotExist
	}
	b.wait(ctx, len(data))
	return data, nil
}

// List returns durable object names with the prefix, sorted. It filters
// before it sorts: the store holds every node's segments and chunks, and a
// caller lists one node's.
func (b *Blob) List(ctx env.Ctx, prefix string) ([]string, error) {
	b.wait(ctx, 0)
	b.mu.Lock()
	var out []string
	for name := range b.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	b.mu.Unlock()
	sort.Strings(out)
	return out, nil
}

// Delete removes the object.
func (b *Blob) Delete(ctx env.Ctx, name string) error {
	b.wait(ctx, 0)
	b.mu.Lock()
	delete(b.objects, name)
	delete(b.staged, name)
	b.mu.Unlock()
	return nil
}

// Wipe destroys every object (durable and staged) under prefix, modelling a
// crash that loses the disk. Instantaneous by design.
func (b *Blob) Wipe(prefix string) {
	b.mu.Lock()
	for _, name := range det.Keys(b.objects) {
		if strings.HasPrefix(name, prefix) {
			delete(b.objects, name)
		}
	}
	for _, name := range det.Keys(b.staged) {
		if strings.HasPrefix(name, prefix) {
			delete(b.staged, name)
		}
	}
	b.mu.Unlock()
}
