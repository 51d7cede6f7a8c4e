package oracle

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"reflect"
	"time"
	"unsafe"

	"rings/internal/metric"
	"rings/internal/workload"
)

// Snapshot file magics. v2 is the flat arena bytes behind a checksummed
// header, so a warm start is an mmap (or one bulk read) plus validation.
// v1 (codec-rounded wire labels behind a JSON header) is retired: its
// magic is kept only so a v1 file is refused by name (ErrSnapshotV1)
// instead of as "not a snapshot file".
const (
	persistMagicV1 = "RINGSNAP1\n"
	persistMagicV2 = "RINGSNAP2\n"
)

// ErrSnapshotV1 rejects a file in the retired v1 format. There is no
// converter: the file's workload header says what to rebuild.
var ErrSnapshotV1 = errors.New(`oracle: snapshot is in the retired v1 format (magic "RINGSNAP1"); delete it to rebuild`)

// crcTable is the checksum polynomial of the v2 format (CRC-64/ECMA).
var crcTable = crc64.MakeTable(crc64.ECMA)

// persistHeaderV2 is the v2 JSON header: workload identity for the
// deterministic rebuild of derived artifacts, plus the arena section
// directory and checksums that make the payload self-describing and
// corruption-evident. Endian records the writer's byte order — the
// payload is raw host-order arrays; a reader on the other byte order
// gets a clear versioned error instead of silently misparsed data.
// Scheme is always SchemeLabels; a reader refuses the retired "beacons"
// by name (ErrSchemeRetired).
type persistHeaderV2 struct {
	Config     Config        `json:"config"`
	Name       string        `json:"name"`
	N          int           `json:"n"`
	Capacity   int           `json:"capacity,omitempty"`
	Perm       []int32       `json:"perm,omitempty"`
	LabelMeta  LabelMeta     `json:"label_meta"`
	Scheme     string        `json:"scheme"`
	Endian     string        `json:"endian"`
	Sections   []flatSection `json:"sections"`
	PayloadLen int64         `json:"payload_len"`
	PayloadCRC uint64        `json:"payload_crc64"`
}

// hostEndian reports this machine's byte order as a header string.
func hostEndian() string {
	x := uint16(1)
	if *(*byte)(unsafe.Pointer(&x)) == 1 {
		return "little"
	}
	return "big"
}

// v2HeaderPrefix is the fixed-size framing after the magic: u32 header
// length plus u64 header CRC, little-endian (framing integers are
// always little-endian; only the arena payload is host-order).
const v2HeaderPrefix = 4 + 8

// v2PayloadOffset computes the 8-aligned payload offset for a given
// header length (padding bytes are zero).
func v2PayloadOffset(hdrLen int) int64 {
	end := int64(len(persistMagicV2)) + v2HeaderPrefix + int64(hdrLen)
	return (end + 7) &^ 7
}

// WriteTo serializes the snapshot in the v2 format: a checksummed JSON
// header followed by the flat arena bytes exactly as served from
// memory. A loader validates the checksum and serves straight from the
// bytes (mmap or one bulk read) — no per-label decode, no codec
// rounding: a restored snapshot answers bit-identical estimates.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	start := time.Now()
	n, err := s.writeToV2(w)
	mPersistTotal.Inc()
	if err != nil {
		mPersistErrors.Inc()
	} else {
		mPersistUs.Observe(float64(time.Since(start)) / float64(time.Microsecond))
	}
	return n, err
}

func (s *Snapshot) writeToV2(w io.Writer) (int64, error) {
	if s.Flat == nil {
		return 0, fmt.Errorf("oracle: snapshot has no flat arenas to persist")
	}
	// A restored snapshot re-persists (and ships) the mapping itself.
	if !s.Flat.pin() {
		return 0, errArenaClosed
	}
	defer s.Flat.unpin()
	hdr := persistHeaderV2{
		Config:     s.Config,
		Name:       s.Name,
		N:          s.N(),
		Capacity:   s.Capacity,
		Perm:       s.Perm,
		LabelMeta:  s.LabelMeta,
		Scheme:     SchemeLabels,
		Endian:     hostEndian(),
		Sections:   s.Flat.sections,
		PayloadLen: int64(len(s.Flat.buf)),
		PayloadCRC: crc64.Checksum(s.Flat.buf, crcTable),
	}
	hdrBuf, err := json.Marshal(hdr)
	if err != nil {
		return 0, err
	}
	bw := &countingWriter{w: w}
	if _, err := bw.Write([]byte(persistMagicV2)); err != nil {
		return bw.n, err
	}
	var prefix [v2HeaderPrefix]byte
	binary.LittleEndian.PutUint32(prefix[0:4], uint32(len(hdrBuf)))
	binary.LittleEndian.PutUint64(prefix[4:12], crc64.Checksum(hdrBuf, crcTable))
	if _, err := bw.Write(prefix[:]); err != nil {
		return bw.n, err
	}
	if _, err := bw.Write(hdrBuf); err != nil {
		return bw.n, err
	}
	if pad := v2PayloadOffset(len(hdrBuf)) - bw.n; pad > 0 {
		var zeros [8]byte
		if _, err := bw.Write(zeros[:pad]); err != nil {
			return bw.n, err
		}
	}
	if _, err := bw.Write(s.Flat.buf); err != nil {
		return bw.n, err
	}
	return bw.n, nil
}

// ReadSnapshot restores a full snapshot from WriteTo's format: the
// stream's estimator payload becomes the snapshot's arena (one aligned
// read buffer) and HydrateOver rebuilds the derived artifacts around it
// over the workload the header describes. For the O(header)
// serve-immediately open, see OpenSnapshotFile.
func ReadSnapshot(r io.Reader) (*Snapshot, error) { return readSnapshot(r, "", nil) }

// ReadSnapshotFor is ReadSnapshot over a space the stream's own Config
// cannot regenerate (see HydrateOver): spaceOf resolves it from the
// header's Perm (nil for a static subspace) and node count. This is the
// replica-shipping path — under churn every shipped snapshot carries a
// different membership — and the shipped bytes are read once, into the
// buffer the replica then serves from.
func ReadSnapshotFor(r io.Reader, name string, spaceOf func(perm []int32, n int) (metric.Space, error)) (*Snapshot, error) {
	return readSnapshot(r, name, spaceOf)
}

func readSnapshot(r io.Reader, name string, spaceOf func(perm []int32, n int) (metric.Space, error)) (snap *Snapshot, err error) {
	defer func() {
		if err != nil {
			mOpenErrors.Inc()
		}
	}()
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagicV2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("oracle: snapshot magic: %w", err)
	}
	if err := checkMagic(magic); err != nil {
		return nil, err
	}
	hdr, payload, err := readV2Envelope(br)
	if err != nil {
		return nil, err
	}
	fast, err := arenaSnapshot(hdr, payload, nil)
	if err != nil {
		return nil, err
	}
	if spaceOf == nil {
		return fast.Hydrate()
	}
	space, err := spaceOf(hdr.Perm, hdr.N)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = hdr.Name
	}
	return fast.HydrateOver(space, name)
}

// checkMagic accepts the v2 magic and names what else it was handed.
func checkMagic(magic []byte) error {
	switch string(magic) {
	case persistMagicV2:
		return nil
	case persistMagicV1:
		return ErrSnapshotV1
	}
	return fmt.Errorf("oracle: not a snapshot file (magic %q)", magic)
}

// readV2Envelope reads and validates everything after the v2 magic:
// header, padding, checksummed payload (into an 8-aligned heap buffer).
func readV2Envelope(br io.Reader) (persistHeaderV2, []byte, error) {
	var hdr persistHeaderV2
	var prefix [v2HeaderPrefix]byte
	if _, err := io.ReadFull(br, prefix[:]); err != nil {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header frame: %w", err)
	}
	hdrLen := int(binary.LittleEndian.Uint32(prefix[0:4]))
	hdrCRC := binary.LittleEndian.Uint64(prefix[4:12])
	if hdrLen <= 0 || hdrLen > 1<<26 {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header length %d out of range", hdrLen)
	}
	hdrBuf := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdrBuf); err != nil {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header: %w", err)
	}
	if got := crc64.Checksum(hdrBuf, crcTable); got != hdrCRC {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header checksum mismatch (got %016x, want %016x)", got, hdrCRC)
	}
	if err := json.Unmarshal(hdrBuf, &hdr); err != nil {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header: %w", err)
	}
	if hdr.Endian != hostEndian() {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 written on a %s-endian host, this host is %s-endian (re-export the snapshot on a matching host)", hdr.Endian, hostEndian())
	}
	if hdr.PayloadLen < 0 {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 payload length %d out of range", hdr.PayloadLen)
	}
	pad := v2PayloadOffset(hdrLen) - int64(len(persistMagicV2)) - v2HeaderPrefix - int64(hdrLen)
	if pad > 0 {
		var zeros [8]byte
		if _, err := io.ReadFull(br, zeros[:pad]); err != nil {
			return hdr, nil, fmt.Errorf("oracle: snapshot v2 padding: %w", err)
		}
	}
	payload, err := readAligned(br, hdr.PayloadLen)
	if err != nil {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 payload: %w", err)
	}
	if got := crc64.Checksum(payload, crcTable); got != hdr.PayloadCRC {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 payload checksum mismatch (got %016x, want %016x)", got, hdr.PayloadCRC)
	}
	return hdr, payload, nil
}

// readAligned reads exactly n bytes into an 8-aligned buffer that grows
// as the bytes arrive, so a header claiming more than the stream holds
// cannot make the reader allocate what it claims.
func readAligned(r io.Reader, n int64) ([]byte, error) {
	const chunk = 4 << 20
	buf := alignedBytes(int(min(n, chunk)))
	have := 0
	for {
		m, err := io.ReadFull(r, buf[have:])
		if have += m; err != nil {
			return nil, err
		}
		if int64(have) == n {
			return buf, nil
		}
		grown := alignedBytes(int(min(n, 2*int64(len(buf)))))
		copy(grown, buf)
		buf = grown
	}
}

// arenaSnapshot binds and validates loaded arena bytes (mapping window
// when m is set, heap buffer otherwise) as a flat-only snapshot: what
// OpenSnapshotFile serves at once and what HydrateOver starts from.
// Ownership of m passes to the snapshot; on error it is unmapped.
func arenaSnapshot(hdr persistHeaderV2, payload []byte, m *mapping) (*Snapshot, error) {
	flat := &FlatSnap{n: hdr.N, buf: payload, m: m, sections: hdr.Sections}
	flat.refs.Store(1)
	err := CheckScheme(hdr.Scheme)
	if err == nil {
		err = flat.bind()
	}
	if err == nil {
		err = flat.validate()
	}
	if err != nil {
		if m != nil {
			m.close()
		}
		return nil, err
	}
	flat.keys, flat.lists = flat.countKeys()
	return &Snapshot{
		Config:    hdr.Config.withDefaults(),
		Name:      hdr.Name,
		LabelMeta: hdr.LabelMeta,
		Perm:      hdr.Perm,
		Capacity:  hdr.Capacity,
		Flat:      flat,
		n:         hdr.N,
	}, nil
}

// ownSpace regenerates the workload view a flat-only snapshot's header
// describes (the full base space, or a churned subset through Perm).
func (s *Snapshot) ownSpace() (metric.Space, string, error) {
	var space metric.Space
	name := s.Name
	if s.Perm != nil {
		base, _, err := workload.ChurnBase(s.Config.Spec(), s.Capacity)
		if err != nil {
			return nil, "", err
		}
		for _, b := range s.Perm {
			if int(b) < 0 || int(b) >= base.N() {
				return nil, "", fmt.Errorf("oracle: perm references base node %d of %d", b, base.N())
			}
		}
		space = metric.NewSubspace(base, s.Perm)
	} else {
		var err error
		if space, name, err = s.Config.Spec().Space(); err != nil {
			return nil, "", err
		}
		if s.Name != "" {
			name = s.Name
		}
	}
	return space, name, nil
}

// Hydrate is HydrateOver the workload the snapshot's own header names.
func (s *Snapshot) Hydrate() (*Snapshot, error) {
	space, name, err := s.ownSpace()
	if err != nil {
		return nil, err
	}
	return s.HydrateOver(space, name)
}

// HydrateOver is the one routine that turns an arena into a full
// snapshot; every restore entry point (ReadSnapshot*, Hydrate, fleet
// warm boots) ends here. It builds only what queries read — ball index
// and overlay — around the receiver's arena as is: no copy, no pointer
// labels, no ring construction. The router is left to the rule on
// Snapshot.Router: the first Route on the result builds it, or
// InheritRouter when a replica installs a shipped snapshot in place of
// a routed one. The space is the caller's
// because a fleet shard's (a subspace of the shared workload) is not
// regenerable from its own Config.
//
// The result shares the receiver's FlatSnap and takes over its one
// creation reference: swap it in WITHOUT closing the receiver (readers
// of either pin the same refcount) and Close the result once it has
// left service — that single release is what unmaps.
func (s *Snapshot) HydrateOver(space metric.Space, name string) (*Snapshot, error) {
	start := time.Now()
	if s.Flat == nil || s.Idx != nil {
		return nil, fmt.Errorf("oracle: hydrate needs a flat-only snapshot (a v2 OpenSnapshotFile result)")
	}
	if space.N() != s.n {
		return nil, fmt.Errorf("oracle: snapshot holds %d nodes, its space has %d", s.n, space.N())
	}
	full, _, err := indexSnapshot(s.Config, space, name)
	if err != nil {
		return nil, err
	}
	full.LabelMeta, full.Perm, full.Capacity, full.Flat = s.LabelMeta, s.Perm, s.Capacity, s.Flat
	if err := full.buildOverlay(); err != nil {
		return nil, err
	}
	full.finishBuild(start)
	observeOpen(openModeRestore, start)
	return full, nil
}

// OpenSnapshotFile opens a snapshot file for serving in O(header): a v2
// file is mmapped (falling back to one bulk read where mmap is
// unavailable), its checksums validated, and the returned snapshot
// serves estimates directly from the file-backed arenas — no label
// decode, no derived-artifact rebuild. The result is flat-only: Idx and
// Overlay are nil (and the snapshot not Routable) until the caller swaps
// in its Hydrate result (which keeps serving this same mapping);
// Nearest/Route return their usual sentinel errors meanwhile. A retired
// v1 file is refused with ErrSnapshotV1. Callers must Close the returned snapshot — or the
// hydrated one that took its arena over — once it has been swapped out
// of every engine.
func OpenSnapshotFile(path string) (*Snapshot, error) {
	start := time.Now()
	snap, mode, err := openSnapshotFile(path)
	if err != nil {
		mOpenErrors.Inc()
	} else {
		observeOpen(mode, start)
	}
	return snap, err
}

// CheckRecipe refuses a restored snapshot built under another recipe: it
// names the first recipe field (Config's tagged ones) whose knob asked
// reports and on which s.Config and want, defaults applied, differ.
func (s *Snapshot) CheckRecipe(want Config, asked func(knob string) bool) error {
	have, w := reflect.ValueOf(s.Config), reflect.ValueOf(want.withDefaults())
	for i := range have.NumField() {
		f := have.Type().Field(i)
		if knob := f.Tag.Get("recipe"); knob != "" && asked(knob) && have.Field(i).Interface() != w.Field(i).Interface() {
			return fmt.Errorf("oracle: snapshot was built with %s = %v, not the %v asked for (delete the file to rebuild it)", f.Name, have.Field(i), w.Field(i))
		}
	}
	return nil
}

// observeOpen records one completed open or restore under its mode.
func observeOpen(mode string, start time.Time) {
	mOpenTotal.With(mode).Inc()
	mOpenUs.With(mode).Observe(float64(time.Since(start)) / float64(time.Microsecond))
}

// openSnapshotFile is OpenSnapshotFile minus the telemetry: it reports
// which mode answered (mmap or read fallback).
func openSnapshotFile(path string) (*Snapshot, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	magic := make([]byte, len(persistMagicV2))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, "", fmt.Errorf("oracle: snapshot magic: %w", err)
	}
	if err := checkMagic(magic); err != nil {
		return nil, "", err
	}

	var (
		hdr     persistHeaderV2
		payload []byte
		m       *mapping
	)
	if mmapSupported {
		if mapped, merr := mmapFile(f); merr == nil {
			data := mapped.bytes()
			hdr, payload, err = sliceV2Envelope(data)
			if err != nil {
				mapped.close()
				return nil, "", err
			}
			m = mapped
		}
	}
	mode := openModeMmap
	if m == nil {
		mode = openModeRead
		// Copying fallback: same validation, arena bytes in one aligned
		// heap buffer.
		if _, err := f.Seek(int64(len(persistMagicV2)), io.SeekStart); err != nil {
			return nil, "", err
		}
		hdr, payload, err = readV2Envelope(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			return nil, "", err
		}
	}
	snap, err := arenaSnapshot(hdr, payload, m)
	return snap, mode, err
}

// sliceV2Envelope validates a v2 file presented as one byte slice (the
// mmap window) and returns the header plus the payload subslice —
// zero-copy: the arenas are views straight into the mapping.
func sliceV2Envelope(data []byte) (persistHeaderV2, []byte, error) {
	var hdr persistHeaderV2
	base := int64(len(persistMagicV2))
	if int64(len(data)) < base+v2HeaderPrefix {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header frame: %w", io.ErrUnexpectedEOF)
	}
	hdrLen := int(binary.LittleEndian.Uint32(data[base : base+4]))
	hdrCRC := binary.LittleEndian.Uint64(data[base+4 : base+12])
	if hdrLen <= 0 || hdrLen > 1<<26 || base+v2HeaderPrefix+int64(hdrLen) > int64(len(data)) {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header length %d out of range", hdrLen)
	}
	hdrBuf := data[base+v2HeaderPrefix : base+v2HeaderPrefix+int64(hdrLen)]
	if got := crc64.Checksum(hdrBuf, crcTable); got != hdrCRC {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header checksum mismatch (got %016x, want %016x)", got, hdrCRC)
	}
	if err := json.Unmarshal(hdrBuf, &hdr); err != nil {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 header: %w", err)
	}
	if hdr.Endian != hostEndian() {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 written on a %s-endian host, this host is %s-endian (re-export the snapshot on a matching host)", hdr.Endian, hostEndian())
	}
	off := v2PayloadOffset(hdrLen)
	if hdr.PayloadLen < 0 || off+hdr.PayloadLen > int64(len(data)) {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 payload: %w", io.ErrUnexpectedEOF)
	}
	payload := data[off : off+hdr.PayloadLen : off+hdr.PayloadLen]
	if got := crc64.Checksum(payload, crcTable); got != hdr.PayloadCRC {
		return hdr, nil, fmt.Errorf("oracle: snapshot v2 payload checksum mismatch (got %016x, want %016x)", got, hdr.PayloadCRC)
	}
	return hdr, payload, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
