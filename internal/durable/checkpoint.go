package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"tell/internal/env"
	"tell/internal/wire"
)

// Manifest describes one durable checkpoint generation. It is written
// last, with an atomic Put, after every chunk of its generation: the
// moment the manifest lands is the atomic switch from the previous
// checkpoint to this one. A crash anywhere before that leaves the old
// manifest (and the old recovery path) fully intact.
type Manifest struct {
	// Seq is the checkpoint generation number.
	Seq uint64
	// Floor is the first WAL segment NOT fully covered by this image:
	// recovery loads the chunks and replays segments >= Floor. It is the
	// WAL position read before the memtable snapshot began (fuzzy
	// checkpoint: mutations racing the snapshot appear in both; stamps
	// dedupe them).
	Floor uint64
	// LSN is the next log sequence number at capture time (diagnostic).
	LSN uint64
	// Stamp is the highest cell stamp in the image; recovery seeds the
	// node's stamp counter past it.
	Stamp uint64
	// Fence is a commit-manager snapshot boundary slot that the format
	// keeps; no writer samples one, so the store writes 0.
	Fence uint64
	// Chunks and Cells size the image.
	Chunks uint64
	Cells  uint64
}

const ckptMagic = 0xC4

func manifestName(ns string) string { return ns + "/ckpt/manifest" }

func chunkName(ns string, seq uint64, i int) string {
	return fmt.Sprintf("%s/ckpt/g%010d/chunk-%06d", ns, seq, i)
}

// genPrefix is the object prefix of generation seq's chunks.
func genPrefix(ns string, seq uint64) string {
	return fmt.Sprintf("%s/ckpt/g%010d/", ns, seq)
}

// encodeManifest frames the manifest with magic + CRC like a WAL record, so
// bit-rot is detected rather than silently replayed.
func encodeManifest(m *Manifest) []byte {
	w := wire.NewWriter(64)
	w.Uvarint(m.Seq)
	w.Uvarint(m.Floor)
	w.Uvarint(m.LSN)
	w.Uvarint(m.Stamp)
	w.Uvarint(m.Fence)
	w.Uvarint(m.Chunks)
	w.Uvarint(m.Cells)
	p := w.Bytes()
	out := make([]byte, 0, len(p)+5)
	out = append(out, ckptMagic)
	var crc [4]byte
	putU32(crc[:], crc32.ChecksumIEEE(p))
	out = append(out, crc[:]...)
	return append(out, p...)
}

func decodeManifest(b []byte) (*Manifest, error) {
	if len(b) < 5 || b[0] != ckptMagic {
		return nil, fmt.Errorf("%w: bad manifest header", ErrCorrupt)
	}
	p := b[5:]
	if crc32.ChecksumIEEE(p) != getU32(b[1:5]) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	r := wire.NewReader(p)
	m := &Manifest{
		Seq:    r.Uvarint(),
		Floor:  r.Uvarint(),
		LSN:    r.Uvarint(),
		Stamp:  r.Uvarint(),
		Fence:  r.Uvarint(),
		Chunks: r.Uvarint(),
		Cells:  r.Uvarint(),
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}

// chunkHdrReserve is the space a chunkWriter keeps free in front of the
// cells for the chunk header, whose length is only known once the cell count
// is: magic + CRC (5 bytes) plus a count varint of at most 10.
const chunkHdrReserve = 16

// chunkWriter encodes checkpoint chunks — [magic][crc32][count][cells...] —
// into one buffer reused across the chunks of a checkpoint. Cells are
// appended behind a reserved gap; finish writes the header right-aligned
// into the gap, so a chunk is encoded exactly once and never copied.
type chunkWriter struct {
	w     *wire.Writer
	cells uint64
	bytes int // 16+len(key)+len(val) summed over cells: the size rule
}

func newChunkWriter(capacity int) *chunkWriter {
	c := &chunkWriter{w: wire.NewWriter(chunkHdrReserve + capacity)}
	c.w.U64(0)
	c.w.U64(0)
	return c
}

func (c *chunkWriter) add(m *wire.Mutation) {
	appendMutation(c.w, m)
	c.cells++
	c.bytes += 16 + len(m.Key) + len(m.Val)
}

// finish frames the cells added since the last finish and returns the chunk,
// which aliases the writer's buffer: it is valid until the next add.
func (c *chunkWriter) finish() []byte {
	buf := c.w.Bytes()
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], c.cells)
	start := chunkHdrReserve - n - 5
	copy(buf[start+5:], cnt[:n])
	buf[start] = ckptMagic
	putU32(buf[start+1:start+5], crc32.ChecksumIEEE(buf[start+5:]))
	c.w.Truncate(chunkHdrReserve)
	c.cells, c.bytes = 0, 0
	return buf[start:]
}

// DecodeChunk feeds every cell in a checkpoint chunk to fn. Chunks are
// written atomically, so unlike segments there is no torn case — any
// framing failure is corruption.
func DecodeChunk(b []byte, fn func(*wire.Mutation)) error {
	if len(b) < 5 || b[0] != ckptMagic {
		return fmt.Errorf("%w: bad chunk header", ErrCorrupt)
	}
	p := b[5:]
	if crc32.ChecksumIEEE(p) != getU32(b[1:5]) {
		return fmt.Errorf("%w: chunk checksum mismatch", ErrCorrupt)
	}
	r := wire.NewReader(p)
	n := r.Count(6)
	for i := 0; i < n; i++ {
		var m wire.Mutation
		readMutation(r, &m)
		fn(&m)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// IsChunk reports whether the object name is a checkpoint chunk of ns.
func IsChunk(ns, name string) bool {
	return strings.HasPrefix(name, ns+"/ckpt/") && strings.Contains(name, "/chunk-")
}

// CellSource is where WriteCheckpoint pulls the image from. One call emits,
// in ascending key order, every cell with key > after (every cell when after
// is nil) until emit returns false. The source takes whatever lock guards
// the cells for the duration of one call and no longer, so emit never blocks;
// the mutation it emits may alias the guarded memory and is valid only
// during emit. A source whose cells were replaced wholesale since the walk
// began (a crash, a recovery) must return an error: the chunks already written
// and the cells it would emit now are not one image.
type CellSource func(after []byte, emit func(m wire.Mutation) bool) error

// SliceSource serves a key-ordered cell slice as a CellSource.
func SliceSource(cells []wire.Mutation) CellSource {
	return func(after []byte, emit func(wire.Mutation) bool) error {
		i := 0
		if after != nil {
			i = sort.Search(len(cells), func(i int) bool { return bytes.Compare(cells[i].Key, after) > 0 })
		}
		for i < len(cells) && emit(cells[i]) {
			i++
		}
		return nil
	}
}

// WriteCheckpoint streams src into man.Seq's chunk objects, then atomically
// installs the manifest, then garbage-collects chunks of older generations.
// Each chunk is one src call: cells are encoded straight into a reused
// buffer until the chunk reaches chunkBytes (default 64 KiB; the crossing
// cell is included), the chunk is Put with the source's lock released, and
// the next call resumes after the last key written — so the image is fuzzy
// across chunks as well as against the log, which the manifest floor and
// cell stamps already cover. man.Stamp, man.Chunks and man.Cells are filled
// in. The last write is the manifest, so a crash at any boundary — or an
// error from src, which abandons the generation before its manifest — leaves
// a consistent previous generation.
func WriteCheckpoint(ctx env.Ctx, be Backend, ns string, man *Manifest, src CellSource, chunkBytes int) error {
	if chunkBytes <= 0 {
		chunkBytes = 64 << 10
	}
	man.Stamp, man.Cells, man.Chunks = 0, 0, 0
	cw := newChunkWriter(chunkBytes)
	var after []byte              // nil: the first call starts at the smallest key
	cursor := make([]byte, 0, 64) // never nil, so an empty key cannot restart the walk
	emit := func(m wire.Mutation) bool {
		cw.add(&m)
		if m.Stamp > man.Stamp {
			man.Stamp = m.Stamp
		}
		if cw.bytes < chunkBytes {
			return true
		}
		cursor = append(cursor[:0], m.Key...)
		after = cursor
		return false
	}
	for full := true; full; {
		if err := src(after, emit); err != nil {
			return err
		}
		if cw.cells == 0 {
			break
		}
		full = cw.bytes >= chunkBytes // else the source ran dry: this is the last chunk
		man.Cells += cw.cells
		name := chunkName(ns, man.Seq, int(man.Chunks))
		if err := be.Put(ctx, name, cw.finish()); err != nil {
			return err
		}
		man.Chunks++
	}
	if err := be.Put(ctx, manifestName(ns), encodeManifest(man)); err != nil {
		return err
	}
	// GC older generations. Crash-safe: the new manifest is already
	// durable, so these objects are unreachable whatever survives.
	names, err := be.List(ctx, ns+"/ckpt/")
	if err != nil {
		return err
	}
	keep := genPrefix(ns, man.Seq)
	for _, name := range names {
		if name == manifestName(ns) || strings.HasPrefix(name, keep) {
			continue
		}
		if err := be.Delete(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpoint reads ns's current checkpoint, feeding every cell to
// apply. It returns nil (and calls nothing) when no checkpoint exists.
func LoadCheckpoint(ctx env.Ctx, be Backend, ns string, apply func(*wire.Mutation)) (*Manifest, error) {
	raw, err := be.Get(ctx, manifestName(ns))
	if err == ErrNotExist {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	man, err := decodeManifest(raw)
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(man.Chunks); i++ {
		data, err := be.Get(ctx, chunkName(ns, man.Seq, i))
		if err != nil {
			return nil, fmt.Errorf("durable: checkpoint chunk %d: %w", i, err)
		}
		if err := DecodeChunk(data, apply); err != nil {
			return nil, fmt.Errorf("durable: checkpoint chunk %d: %w", i, err)
		}
	}
	return man, nil
}

// RecoveryObjects lists the objects a scatter-gather recovery must replay
// to reconstruct ns's state: the current checkpoint generation's chunks
// followed by WAL segments at or above the manifest floor (all segments
// when no checkpoint exists). The order is deterministic; applying the
// records in any order converges because cells carry stamps.
func RecoveryObjects(ctx env.Ctx, be Backend, ns string) ([]string, error) {
	var floor uint64
	var out []string
	raw, err := be.Get(ctx, manifestName(ns))
	switch err {
	case nil:
		man, err := decodeManifest(raw)
		if err != nil {
			return nil, err
		}
		floor = man.Floor
		for i := 0; i < int(man.Chunks); i++ {
			out = append(out, chunkName(ns, man.Seq, i))
		}
	case ErrNotExist:
	default:
		return nil, err
	}
	names, err := be.List(ctx, ns+"/wal/")
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if idx, ok := segIndex(name); ok && idx >= floor {
			out = append(out, name)
		}
	}
	return out, nil
}
