package durable

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tell/internal/det"
	"tell/internal/env"
	"tell/internal/sanitize"
)

// File is a Backend over a local directory: each object is a file, Append
// writes through the OS page cache and Sync is fsync, Put is
// write-temp-then-rename. It serves real deployments (telld -wal-dir);
// simulated experiments prefer Blob so I/O time is modelled in virtual
// time.
type File struct {
	dir string

	// mu guards the handle map, and it is held from creating a file's
	// directory until the file exists, and while Delete prunes directories,
	// so pruning never removes a directory a file is about to enter.
	mu   sanitize.Mutex
	open map[string]*os.File // append handles, kept open between Sync calls
}

// NewFile returns a backend rooted at dir, creating it if needed.
func NewFile(dir string) (*File, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &File{dir: dir, open: make(map[string]*os.File)}
	f.mu.SetName("durable.File.mu")
	return f, nil
}

func (f *File) path(name string) string {
	return filepath.Join(f.dir, filepath.FromSlash(name))
}

// handle returns the open append handle for name, creating file and parent
// directories on first use. Caller holds f.mu.
func (f *File) handle(name string) (*os.File, error) {
	if h, ok := f.open[name]; ok {
		return h, nil
	}
	h, err := create(f.path(name), os.O_APPEND)
	if err != nil {
		return nil, err
	}
	f.open[name] = h
	return h, nil
}

// create opens path for writing, creating it and its parent directories.
// Caller holds f.mu.
func create(path string, flag int) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
}

// Put atomically replaces the object via a temp file and rename. The file
// I/O (including the fsync) runs outside f.mu: a checkpoint Put must not
// stall concurrent WAL appends to other objects, and the backend contract
// forbids concurrent writers to the same object, so only the handle map and
// the temp file's creation need the lock.
func (f *File) Put(ctx env.Ctx, name string, data []byte) error {
	p := f.path(name)
	tmp := p + ".tmp"
	f.mu.Lock()
	if h, ok := f.open[name]; ok {
		delete(f.open, name)
		if err := h.Close(); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	h, err := create(tmp, os.O_TRUNC)
	f.mu.Unlock()
	if err != nil {
		return err
	}
	if _, err := h.Write(data); err != nil {
		return errors.Join(err, h.Close())
	}
	if err := h.Sync(); err != nil {
		return errors.Join(err, h.Close())
	}
	if err := h.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

// Append writes data at the end of the object.
func (f *File) Append(ctx env.Ctx, name string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, err := f.handle(name)
	if err != nil {
		return err
	}
	_, err = h.Write(data)
	return err
}

// Sync fsyncs the object's append handle.
func (f *File) Sync(ctx env.Ctx, name string) error {
	f.mu.Lock()
	h, ok := f.open[name]
	f.mu.Unlock()
	if !ok {
		return nil
	}
	return h.Sync()
}

// Get reads the object in full.
func (f *File) Get(ctx env.Ctx, name string) ([]byte, error) {
	data, err := os.ReadFile(f.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotExist
	}
	return data, err
}

// List walks the directory tree and returns slash-separated object names
// with the prefix, sorted.
func (f *File) List(ctx env.Ctx, prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(f.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(f.dir, p)
		if rerr != nil {
			return rerr
		}
		name := filepath.ToSlash(rel)
		if strings.HasSuffix(name, ".tmp") {
			return nil
		}
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes the object; missing objects are not an error. Directories
// the removal leaves empty are removed too, up to the root, so retired
// checkpoint generations leave nothing behind. A close failure on the append
// handle is reported even though the file is going away: it can signal a
// dying disk that WAL truncation must not ignore.
func (f *File) Delete(ctx env.Ctx, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var closeErr error
	if h, ok := f.open[name]; ok {
		closeErr = h.Close()
		delete(f.open, name)
	}
	p := f.path(name)
	err := os.Remove(p)
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	for dir := filepath.Dir(p); err == nil && strings.HasPrefix(dir, f.dir+string(filepath.Separator)); dir = filepath.Dir(dir) {
		// Removing a directory fails unless it is empty: the first
		// non-empty ancestor ends the walk.
		if os.Remove(dir) != nil {
			break
		}
	}
	return errors.Join(closeErr, err)
}

// Wipe removes every object under prefix (crash-losing-disk model).
func (f *File) Wipe(prefix string) {
	f.mu.Lock()
	for _, name := range det.Keys(f.open) {
		if strings.HasPrefix(name, prefix) {
			// Wipe models losing the disk; the handles' fate is the point.
			//lint:allow errdiscard wipe simulates disk loss, close errors are part of the modeled failure
			f.open[name].Close()
			delete(f.open, name)
		}
	}
	f.mu.Unlock()
	os.RemoveAll(f.path(strings.TrimSuffix(prefix, "/")))
}

// Close releases all open append handles (for tests and shutdown).
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for _, name := range det.Keys(f.open) {
		if err := f.open[name].Close(); err != nil && first == nil {
			first = err
		}
		delete(f.open, name)
	}
	return first
}
