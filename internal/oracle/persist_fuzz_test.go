package oracle

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc64"
	"math"
	"testing"
)

// fuzzPairNodes bounds the nodes whose pairs one fuzz input estimates
// (all pairs of the n = 64 seed image).
const fuzzPairNodes = 64

// resealHeader recomputes a v2 image's header checksum over whatever the
// header bytes now say, so a mutated directory reaches the JSON decoder.
func resealHeader(img []byte) []byte {
	base := len(persistMagicV2)
	if len(img) < base+v2HeaderPrefix {
		return img
	}
	hdrLen := int(binary.LittleEndian.Uint32(img[base:]))
	if hdrLen <= 0 || base+v2HeaderPrefix+hdrLen > len(img) {
		return img
	}
	hdr := img[base+v2HeaderPrefix : base+v2HeaderPrefix+hdrLen]
	binary.LittleEndian.PutUint64(img[base+4:], crc64.Checksum(hdr, crcTable))
	return img
}

// resealPayload re-encodes a v2 image whose header parses with the
// payload checksum it now needs, so mutated arena bytes and section
// directories reach bind and validate. It returns nil when the header
// does not parse or the payload it claims is not there.
func resealPayload(img []byte) []byte {
	base := len(persistMagicV2)
	if len(img) < base+v2HeaderPrefix {
		return nil
	}
	hdrLen := int(binary.LittleEndian.Uint32(img[base:]))
	if hdrLen <= 0 || base+v2HeaderPrefix+hdrLen > len(img) {
		return nil
	}
	var hdr persistHeaderV2
	if json.Unmarshal(img[base+v2HeaderPrefix:base+v2HeaderPrefix+hdrLen], &hdr) != nil {
		return nil
	}
	off := v2PayloadOffset(hdrLen)
	if hdr.PayloadLen < 0 || off > int64(len(img)) || hdr.PayloadLen > int64(len(img))-off {
		return nil
	}
	payload := img[off : off+hdr.PayloadLen]
	hdr.PayloadCRC = crc64.Checksum(payload, crcTable)
	hdrBuf, err := json.Marshal(hdr)
	if err != nil {
		return nil
	}
	out := append([]byte(persistMagicV2), make([]byte, v2HeaderPrefix)...)
	binary.LittleEndian.PutUint32(out[base:], uint32(len(hdrBuf)))
	binary.LittleEndian.PutUint64(out[base+4:], crc64.Checksum(hdrBuf, crcTable))
	out = append(out, hdrBuf...)
	out = append(out, make([]byte, v2PayloadOffset(len(hdrBuf))-int64(len(out)))...)
	return append(out, payload...)
}

// decodeAndServe runs both v2 envelope readers over img — the stream
// reader and the mapping's slice reader, over an 8-aligned copy as a
// mapping is — and estimates all pairs of whatever arena either accepts.
// Hydration is left out: it rebuilds the workload the header names,
// which a fuzzed header can make arbitrarily large.
func decodeAndServe(t *testing.T, img []byte) {
	if len(img) < len(persistMagicV2) || checkMagic(img[:len(persistMagicV2)]) != nil {
		return
	}
	streamHdr, streamPayload, streamErr := readV2Envelope(bytes.NewReader(img[len(persistMagicV2):]))
	aligned := alignedBytes(len(img))
	copy(aligned, img)
	hdr, payload, err := sliceV2Envelope(aligned)
	if (err == nil) != (streamErr == nil) {
		t.Fatalf("envelope readers disagree: stream %v, slice %v", streamErr, err)
	}
	if err != nil {
		return
	}
	streamed, streamErr := arenaSnapshot(streamHdr, streamPayload, nil)
	snap, err := arenaSnapshot(hdr, payload, nil)
	if (err == nil) != (streamErr == nil) {
		t.Fatalf("arena checks disagree: stream %v, slice %v", streamErr, err)
	}
	if err != nil {
		return
	}
	f := snap.Flat
	nodes := min(f.n, fuzzPairNodes)
	for u := 0; u < nodes; u++ {
		for v := 0; v < nodes; v++ {
			lo, up, ok := f.estimatePair(u, v)
			slo, sup, sok := streamed.Flat.estimatePair(u, v)
			if math.Float64bits(lo) != math.Float64bits(slo) || math.Float64bits(up) != math.Float64bits(sup) || ok != sok {
				t.Fatalf("estimate(%d,%d): slice arena (%v, %v, %v), streamed (%v, %v, %v)", u, v, lo, up, ok, slo, sup, sok)
			}
		}
	}
}

// FuzzReadSnapshot is the snapshot decoder's fuzz: over any bytes, each
// v2 reader returns an error or an arena on which every pair estimates
// without a panic — so without a read outside the arena, every view of
// which is a bounded slice. Each input is tried as is, with its header
// checksum recomputed (reaching the JSON directory), and re-encoded with
// its payload checksum recomputed (reaching bind and validate).
func FuzzReadSnapshot(f *testing.F) {
	snap := buildTestSnapshot(f, 1)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	for _, tc := range corruptCases(img) {
		f.Add(tc.mutate(bytes.Clone(img)))
	}
	for _, retired := range retiredSections {
		f.Add(oldLayoutImage(f, bytes.Clone(img), retired))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAndServe(t, data)
		decodeAndServe(t, resealHeader(bytes.Clone(data)))
		if sealed := resealPayload(data); sealed != nil {
			decodeAndServe(t, sealed)
		}
	})
}
