package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"banshee/internal/errs"
	"banshee/internal/mem"
	"banshee/internal/trace"
)

// Reader replays a trace from an io.ReaderAt. Open validates the
// header, footer, and the whole chunk index up front (work bounded by
// the index size, not the trace size); chunk payloads are loaded and
// CRC-checked lazily, one chunk per core at a time, into buffers
// preallocated from the index — so multi-GB traces replay without
// being held in memory and the steady-state Next path allocates
// nothing.
//
// Reader implements the workload Source contract (Name, Cores,
// Footprint, Next), so an opened trace plugs directly into the
// simulator. Next cannot return an error; failures after a successful
// Open latch into Err and Next returns zero events from then on. A
// decode failure wraps errs.ErrTraceCorrupt; reading a core past the
// end of its recorded stream wraps errs.ErrTraceWrapped, since the
// recording has no event to give.
type Reader struct {
	src    io.ReaderAt
	closer io.Closer // set when the Reader owns the file
	meta   Meta
	chunks []indexEntry
	cores  []coreDec
	total  uint64
	err    error
}

type coreDec struct {
	list      []int32 // indices into chunks, stream order
	li        int     // next chunk in list to load
	buf       []byte  // frame + payload of the current chunk (reused)
	payload   []byte  // buf's payload portion
	pos       int
	remaining uint32
	prev      uint64 // previous decoded address (delta base)
	events    uint64 // total recorded events of this core
}

// Open opens a trace file for replay. Close releases the file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens a trace held in any random-access source of the
// given size. Every structural claim the untrusted input makes (counts,
// offsets, lengths) is validated against size before being used to
// allocate or read, so garbage input fails cleanly instead of
// panicking or over-allocating.
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{src: src}
	if size < headerFixedLen+footerLen {
		return nil, corruptf("file too short (%d bytes)", size)
	}

	// Header.
	var hdr [headerFixedLen]byte
	if _, err := src.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("tracefile: read header: %w", err)
	}
	if !bytes.Equal(hdr[0:4], magicHeader[:]) {
		return nil, corruptf("bad magic %q", hdr[0:4])
	}
	if v := getU16(hdr[4:]); v != Version {
		return nil, fmt.Errorf("tracefile: unsupported version %d (have %d)", v, Version)
	}
	flags := getU16(hdr[6:])
	cores := getU32(hdr[8:])
	nameLen := getU32(hdr[12:])
	if cores == 0 || cores > MaxCores {
		return nil, corruptf("core count %d out of [1,%d]", cores, MaxCores)
	}
	if nameLen > 1<<10 || int64(headerFixedLen+nameLen+footerLen) > size {
		return nil, corruptf("name length %d overruns file", nameLen)
	}
	if getU32(hdr[28:]) != 0 {
		return nil, corruptf("reserved header bytes set")
	}
	name := make([]byte, nameLen)
	if _, err := src.ReadAt(name, headerFixedLen); err != nil {
		return nil, fmt.Errorf("tracefile: read name: %w", err)
	}
	crc := crc32.Checksum(hdr[:24], castagnoli)
	crc = crc32.Update(crc, castagnoli, name)
	if getU32(hdr[24:]) != crc {
		return nil, corruptf("header checksum mismatch")
	}
	r.meta = Meta{
		Name:      string(name),
		Cores:     int(cores),
		Shared:    flags&flagShared != 0,
		Footprint: getU64(hdr[16:]),
	}
	headerEnd := uint64(headerFixedLen + nameLen)

	// Footer.
	var foot [footerLen]byte
	if _, err := src.ReadAt(foot[:], size-footerLen); err != nil {
		return nil, fmt.Errorf("tracefile: read footer: %w", err)
	}
	if !bytes.Equal(foot[20:24], magicEnd[:]) {
		return nil, corruptf("bad end magic %q", foot[20:24])
	}
	if getU32(foot[16:]) != crc32.Checksum(foot[:16], castagnoli) {
		return nil, corruptf("footer checksum mismatch")
	}
	indexOffset := getU64(foot[0:])
	r.total = getU64(foot[8:])
	indexEnd := uint64(size - footerLen)
	if indexOffset < headerEnd || indexOffset+8+4 > indexEnd {
		return nil, corruptf("index offset %d out of bounds", indexOffset)
	}

	// Index.
	var ih [8]byte
	if _, err := src.ReadAt(ih[:], int64(indexOffset)); err != nil {
		return nil, fmt.Errorf("tracefile: read index: %w", err)
	}
	if !bytes.Equal(ih[0:4], magicIndex[:]) {
		return nil, corruptf("bad index magic %q", ih[0:4])
	}
	chunkCount := getU32(ih[4:])
	if indexOffset+8+uint64(chunkCount)*indexEntryLen+4 != indexEnd {
		return nil, corruptf("index size mismatch (%d chunks)", chunkCount)
	}
	entries := make([]byte, int(chunkCount)*indexEntryLen)
	if _, err := src.ReadAt(entries, int64(indexOffset)+8); err != nil {
		return nil, fmt.Errorf("tracefile: read index entries: %w", err)
	}
	var crcb [4]byte
	if _, err := src.ReadAt(crcb[:], int64(indexEnd)-4); err != nil {
		return nil, fmt.Errorf("tracefile: read index checksum: %w", err)
	}
	if getU32(crcb[:]) != crc32.Checksum(entries, castagnoli) {
		return nil, corruptf("index checksum mismatch")
	}

	// Entries: chunks must tile [headerEnd, indexOffset) exactly, in
	// order, with per-core firstEvent counters that add up.
	r.chunks = make([]indexEntry, chunkCount)
	r.cores = make([]coreDec, cores)
	maxPayload := make([]uint32, cores)
	next := headerEnd
	var total uint64
	for i := range r.chunks {
		b := entries[i*indexEntryLen:]
		e := indexEntry{
			offset:     getU64(b[0:]),
			firstEvent: getU64(b[8:]),
			core:       getU32(b[16:]),
			events:     getU32(b[20:]),
			payloadLen: getU32(b[24:]),
		}
		if e.core >= cores {
			return nil, corruptf("chunk %d: core %d out of range", i, e.core)
		}
		if e.events == 0 || e.events > ChunkEvents {
			return nil, corruptf("chunk %d: event count %d out of [1,%d]", i, e.events, ChunkEvents)
		}
		if uint64(e.payloadLen) < 2*uint64(e.events) || uint64(e.payloadLen) > indexOffset {
			return nil, corruptf("chunk %d: payload length %d inconsistent with %d events", i, e.payloadLen, e.events)
		}
		if e.offset != next {
			return nil, corruptf("chunk %d: offset %d, want %d", i, e.offset, next)
		}
		next = e.offset + chunkFrameLen + uint64(e.payloadLen)
		if next > indexOffset {
			return nil, corruptf("chunk %d overruns index", i)
		}
		d := &r.cores[e.core]
		if e.firstEvent != d.events {
			return nil, corruptf("chunk %d: firstEvent %d, want %d", i, e.firstEvent, d.events)
		}
		d.events += uint64(e.events)
		d.list = append(d.list, int32(i))
		if e.payloadLen > maxPayload[e.core] {
			maxPayload[e.core] = e.payloadLen
		}
		total += uint64(e.events)
		r.chunks[i] = e
	}
	if next != indexOffset {
		return nil, corruptf("chunks end at %d, index starts at %d", next, indexOffset)
	}
	if total != r.total {
		return nil, corruptf("footer claims %d events, chunks hold %d", r.total, total)
	}
	// Preallocate each core's chunk buffer to its largest chunk, so the
	// replay path never allocates. The sum is bounded by the file size.
	for c := range r.cores {
		if maxPayload[c] > 0 {
			r.cores[c].buf = make([]byte, chunkFrameLen+int(maxPayload[c]))
		}
	}
	return r, nil
}

// Meta returns the recorded workload's description.
func (r *Reader) Meta() Meta { return r.meta }

// Name returns the recorded workload's name.
func (r *Reader) Name() string { return r.meta.Name }

// Cores returns the number of per-core streams.
func (r *Reader) Cores() int { return len(r.cores) }

// Shared reports whether the recorded workload shared one address space.
func (r *Reader) Shared() bool { return r.meta.Shared }

// Footprint returns the recorded workload's declared footprint.
func (r *Reader) Footprint() uint64 { return r.meta.Footprint }

// TotalEvents returns the number of recorded events across all cores.
func (r *Reader) TotalEvents() uint64 { return r.total }

// CoreEvents returns the number of recorded events of one core.
func (r *Reader) CoreEvents(core int) uint64 { return r.cores[core].events }

// Err returns the first decode, I/O or ran-out error hit during replay.
func (r *Reader) Err() error { return r.err }

// Next returns core's next recorded event. Past the end of the
// stream, or on error, it latches Err and returns the zero event.
func (r *Reader) Next(core int) trace.Event {
	if r.err != nil {
		return trace.Event{}
	}
	if core < 0 || core >= len(r.cores) {
		r.err = fmt.Errorf("tracefile: core %d out of range [0,%d)", core, len(r.cores))
		return trace.Event{}
	}
	d := &r.cores[core]
	if d.remaining == 0 {
		if !r.advance(core, d) {
			return trace.Event{}
		}
	}
	v1, n := binary.Uvarint(d.payload[d.pos:])
	if n <= 0 {
		r.err = corruptf("core %d: bad gap varint at payload offset %d", core, d.pos)
		return trace.Event{}
	}
	d.pos += n
	v2, n := binary.Uvarint(d.payload[d.pos:])
	if n <= 0 {
		r.err = corruptf("core %d: bad address varint at payload offset %d", core, d.pos)
		return trace.Event{}
	}
	d.pos += n
	d.remaining--
	if d.remaining == 0 && d.pos != len(d.payload) {
		r.err = corruptf("core %d: %d trailing payload bytes", core, len(d.payload)-d.pos)
		return trace.Event{}
	}
	d.prev += uint64(unzigzag(v2))
	if d.prev>>mem.AddrBits != 0 {
		r.err = corruptf("core %d: address %#x exceeds %d bits", core, d.prev, mem.AddrBits)
		return trace.Event{}
	}
	return trace.Event{
		Gap:   int(v1 >> 1),
		Addr:  mem.Addr(d.prev),
		Write: v1&1 == 1,
	}
}

// advance loads core's next chunk; it latches errs.ErrTraceWrapped
// when the core has none left.
func (r *Reader) advance(core int, d *coreDec) bool {
	if d.li == len(d.list) {
		r.err = fmt.Errorf("tracefile: core %d: %w after %d events", core, errs.ErrTraceWrapped, d.events)
		return false
	}
	if err := r.loadChunk(d, int(d.list[d.li])); err != nil {
		r.err = err
		return false
	}
	d.li++
	return true
}

// loadChunk reads and validates chunk ci into d's reusable buffer.
func (r *Reader) loadChunk(d *coreDec, ci int) error {
	e := r.chunks[ci]
	b := d.buf[:chunkFrameLen+int(e.payloadLen)]
	if _, err := r.src.ReadAt(b, int64(e.offset)); err != nil {
		return fmt.Errorf("tracefile: read chunk at %d: %w", e.offset, err)
	}
	if !bytes.Equal(b[0:4], magicChunk[:]) {
		return corruptf("chunk at %d: bad magic %q", e.offset, b[0:4])
	}
	if getU32(b[4:]) != e.core || getU32(b[8:]) != e.events || getU32(b[12:]) != e.payloadLen {
		return corruptf("chunk at %d disagrees with index", e.offset)
	}
	payload := b[chunkFrameLen:]
	if getU32(b[16:]) != crc32.Checksum(payload, castagnoli) {
		return corruptf("chunk at %d: payload checksum mismatch", e.offset)
	}
	d.payload = payload
	d.pos = 0
	d.remaining = e.events
	d.prev = 0
	return nil
}

// Verify loads and fully decodes every chunk, checking checksums,
// event counts and address widths, without disturbing replay cursors.
// It is the whole-file integrity walk behind `tracegen inspect` and the
// fuzz target.
func (r *Reader) Verify() error {
	var scratch coreDec
	var max uint32
	for _, e := range r.chunks {
		if e.payloadLen > max {
			max = e.payloadLen
		}
	}
	scratch.buf = make([]byte, chunkFrameLen+int(max))
	for ci := range r.chunks {
		if err := r.loadChunk(&scratch, ci); err != nil {
			return err
		}
		for scratch.remaining > 0 {
			v, n := binary.Uvarint(scratch.payload[scratch.pos:])
			if n <= 0 {
				return corruptf("chunk %d: bad gap varint", ci)
			}
			scratch.pos += n
			a, n := binary.Uvarint(scratch.payload[scratch.pos:])
			if n <= 0 {
				return corruptf("chunk %d: bad address varint", ci)
			}
			scratch.pos += n
			if scratch.prev += uint64(unzigzag(a)); scratch.prev>>mem.AddrBits != 0 {
				return corruptf("chunk %d: address %#x exceeds %d bits", ci, scratch.prev, mem.AddrBits)
			}
			scratch.remaining--
			_ = v
		}
		if scratch.pos != len(scratch.payload) {
			return corruptf("chunk %d: %d trailing payload bytes", ci, len(scratch.payload)-scratch.pos)
		}
	}
	return nil
}

// ChunkInfo describes one indexed chunk (for `tracegen inspect`).
type ChunkInfo struct {
	Core       int
	Events     uint32
	PayloadLen uint32
	Offset     uint64
	FirstEvent uint64
}

// Chunks returns a copy of the chunk index in file order.
func (r *Reader) Chunks() []ChunkInfo {
	out := make([]ChunkInfo, len(r.chunks))
	for i, e := range r.chunks {
		out[i] = ChunkInfo{
			Core:       int(e.core),
			Events:     e.events,
			PayloadLen: e.payloadLen,
			Offset:     e.offset,
			FirstEvent: e.firstEvent,
		}
	}
	return out
}

// Close releases the underlying file when the Reader owns it.
func (r *Reader) Close() error {
	if r.closer == nil {
		return nil
	}
	err := r.closer.Close()
	r.closer = nil
	return err
}
