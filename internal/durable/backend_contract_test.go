package durable_test

import (
	"bytes"
	"testing"
	"time"

	"tell/internal/crashtest"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/sim"
)

// TestBackendsDoNotRetainCallerBuffers pins the Backend contract the
// streaming checkpoint writer relies on: Put and Append copy, so a caller may
// overwrite its buffer as soon as the call returns.
func TestBackendsDoNotRetainCallerBuffers(t *testing.T) {
	file, err := durable.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	backends := []struct {
		name string
		be   durable.Backend
	}{
		{"Blob", durable.NewBlob(durable.S3Profile())},
		{"File", file},
		{"crashtest.Disk", crashtest.NewDisk()},
	}
	k := sim.NewKernel(1)
	defer k.Shutdown()
	env.NewSim(k).NewNode("test", 1).Go("main", func(ctx env.Ctx) {
		defer k.Stop()
		for _, b := range backends {
			buf := []byte("first-object")
			if err := b.be.Put(ctx, "ns/put", buf); err != nil {
				t.Errorf("%s: put: %v", b.name, err)
			}
			copy(buf, "XXXXXXXXXXXX")
			if got, err := b.be.Get(ctx, "ns/put"); err != nil || string(got) != "first-object" {
				t.Errorf("%s: Put retained the caller's buffer: %q %v", b.name, got, err)
			}

			buf = []byte("staged-")
			if err := b.be.Append(ctx, "ns/app", buf); err != nil {
				t.Errorf("%s: append: %v", b.name, err)
			}
			copy(buf, "YYYYYYY")
			if err := b.be.Append(ctx, "ns/app", buf); err != nil {
				t.Errorf("%s: append: %v", b.name, err)
			}
			copy(buf, "ZZZZZZZ")
			if err := b.be.Sync(ctx, "ns/app"); err != nil {
				t.Errorf("%s: sync: %v", b.name, err)
			}
			if got, err := b.be.Get(ctx, "ns/app"); err != nil || !bytes.Equal(got, []byte("staged-YYYYYYY")) {
				t.Errorf("%s: Append retained the caller's buffer: %q %v", b.name, got, err)
			}
		}
	})
	if err := k.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
}
