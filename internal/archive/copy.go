package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/trace"
)

// Copy appends point index of src to the shard, producing exactly the
// bytes — and the errors — of Append(src.Read(index)). It is the merge
// path: when the stored record already is what this writer would
// encode, its verified frame moves unchanged instead of being decoded
// and re-encoded. That holds when the source shard is POMARC2, the
// record's codec byte is the writer's codec, and canonicalPayload
// accepts the payload. Every other record — POMARC1, a codec
// mismatch, a valid but non-canonical payload — is decoded and
// re-encoded through Append, so the output is canonical either way.
func (w *Writer) Copy(src *Archive, index uint64) error {
	s, k, err := src.lookup(index)
	if err != nil {
		return err
	}
	frame, err := s.readFrame(k, w.frame)
	if err != nil {
		return err
	}
	w.frame = frame
	payload := framePayload(frame)
	if s.version == 1 || len(payload) == 0 || payload[0] != w.codec.wireByte() || !canonicalPayload(payload) {
		rec, err := s.decode(k, payload)
		if err != nil {
			return err
		}
		return w.Append(rec)
	}
	if err := w.idle(); err != nil {
		return err
	}
	// The frame's CRC was verified over this very payload, so it is the
	// CRC the writer computes; the frame is written whole.
	frameOff := w.off
	w.writeRaw(frame)
	if w.werr != nil {
		err := w.werr
		if terr := w.truncate(frameOff); terr != nil {
			return terr
		}
		return fmt.Errorf("archive: %w", err)
	}
	// The index entry takes the payload's own point index, as Append's
	// would: it is what the record decodes to.
	w.ents = append(w.ents, indexEntry{
		index:  binary.LittleEndian.Uint64(payload[1:]),
		off:    frameOff,
		length: uint32(len(payload)),
	})
	return nil
}

// canonicalPayload reports whether a POMARC2 payload is one the Writer
// itself emits: decodePayload accepts it, and re-encoding the decoded
// record with the payload's codec reproduces it byte for byte. The
// walk mirrors the decoder's bounds checks without materializing the
// record — fixed-width fields are canonical by construction, so what
// remains is the delta rows' uvarints, which must be minimal, and an
// embedded trace, which must decode and re-encode to itself (only a
// record carrying a trace allocates here).
func canonicalPayload(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	codec := b[0]
	if codec != codecByteRaw && codec != codecByteDelta {
		return false
	}
	b = b[1:]
	// Head: index u64 · nParams u32 · params · width u32 · nSamples u32.
	if len(b) < 12 {
		return false
	}
	off := 12
	nParams := int(binary.LittleEndian.Uint32(b[8:]))
	if nParams > (len(b)-off)/8 {
		return false
	}
	off += 8 * nParams
	if len(b)-off < 8 {
		return false
	}
	width := int(binary.LittleEndian.Uint32(b[off:]))
	nSamples := int(binary.LittleEndian.Uint32(b[off+4:]))
	off += 8
	if nSamples > 0 {
		// The same division-based bounds as decodeRawPayload and
		// decodeDeltaPayload.
		rem := len(b) - off
		cols := 1 + width
		if codec == codecByteRaw {
			if cols > rem/8 || nSamples > rem/(8*cols) {
				return false
			}
			off += 8 * cols * nSamples
		} else {
			if cols > rem/8 || nSamples-1 > (rem-cols*8)/cols {
				return false
			}
			off += 8 * cols
			for i := (nSamples - 1) * cols; i > 0; i-- {
				n := minimalUvarintLen(b[off:])
				if n <= 0 {
					return false
				}
				off += n
			}
		}
	}
	// Tail: nMetrics u32 · metrics · traceLen u32 · trace.
	if len(b)-off < 4 {
		return false
	}
	nMetrics := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if nMetrics > (len(b)-off)/8 {
		return false
	}
	off += 8 * nMetrics
	if len(b)-off < 4 {
		return false
	}
	traceLen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if traceLen > len(b)-off {
		return false
	}
	if traceLen > 0 {
		tb := b[off : off+traceLen]
		tr, err := trace.DecodeBinary(tb)
		if err != nil || !bytes.Equal(tr.AppendBinary(nil), tb) {
			return false
		}
		off += traceLen
	}
	return off == len(b)
}

// minimalUvarintLen returns the length of the uvarint at the start of
// b when it is the minimal encoding binary.AppendUvarint produces, and
// a non-positive value when it is malformed (as binary.Uvarint reports
// it) or padded with zero high groups.
func minimalUvarintLen(b []byte) int {
	_, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return -1
	}
	return n
}
