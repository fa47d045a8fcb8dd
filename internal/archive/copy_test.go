package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/failpoint"
)

// payloadShard writes dir/shard-00000.pom holding one record with the
// given payload bytes under footer index 7, framed, checksummed and
// indexed exactly as the Writer frames records, so readers reach the
// payload decoder with arbitrary content.
func payloadShard(t testing.TB, dir string, v1 bool, payload []byte) {
	t.Helper()
	b := []byte(shardMagicV2)
	if v1 {
		b = []byte(shardMagicV1)
	}
	b = u32(b, recordMagic)
	b = u32(b, uint32(len(payload)))
	b = append(b, payload...)
	b = u32(b, crc32.Checksum(payload, castagnoli))
	footerOff := len(b)
	body := u32(nil, 1)
	body = u64(body, 7)
	body = u64(body, headerLen)
	body = u32(body, uint32(len(payload)))
	b = u32(b, footerMagic)
	b = append(b, body...)
	b = u32(b, crc32.Checksum(body, castagnoli))
	b = u64(b, uint64(footerOff))
	b = u32(b, trailerMagic)
	if err := os.WriteFile(filepath.Join(dir, shardName(0)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// storedPayload returns the payload the Writer stores for rec under
// codec.
func storedPayload(t testing.TB, dir string, codec Codec, rec *Record) []byte {
	t.Helper()
	w, err := CreateWith(dir, 0, codec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenShard(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.ReadRaw(0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// writeOneShard runs put against a fresh codec writer and returns what
// the shard would seal: the bytes written so far followed by the index
// entries Close turns into the footer. It skips Close's fsyncs, so the
// fuzz loop stays fast.
func writeOneShard(t *testing.T, codec Codec, put func(*Writer) error) ([]byte, error) {
	t.Helper()
	w, err := CreateWith(t.TempDir(), 0, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := put(w); err != nil {
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range w.ents {
		data = u64(data, e.index)
		data = u64(data, uint64(e.off))
		data = u32(data, e.length)
	}
	return data, nil
}

// reencode is the merge oracle for one record: decode it, then append
// the decoded record.
func reencode(a *Archive, index uint64) func(*Writer) error {
	return func(w *Writer) error {
		rec, err := a.Read(index)
		if err != nil {
			return err
		}
		return w.Append(rec)
	}
}

// nonMinimalDelta returns a valid delta payload whose first row-1
// uvarint is padded with a zero high group, together with the
// canonical payload it decodes and re-encodes to.
func nonMinimalDelta(t testing.TB) (padded, canonical []byte) {
	rec := &Record{Index: 3, Width: 1, Ts: []float64{0, 0}, Samples: []float64{5, 5}}
	canonical = storedPayload(t, t.TempDir(), CodecDelta, rec)
	// codec · index · nParams · width · nSamples · row 0 (t, y).
	const at = 1 + 8 + 4 + 4 + 4 + 16
	if canonical[at] != 0 {
		t.Fatalf("byte %d = %#x, want the zero uvarint of a repeated column", at, canonical[at])
	}
	padded = append(append(append([]byte(nil), canonical[:at]...), 0x80, 0x00), canonical[at+1:]...)
	return padded, canonical
}

// FuzzCopyMatchesReencode pins Writer.Copy to the decode + re-encode
// merge it replaces: for any payload bytes in either format
// generation, Copy into either codec yields exactly the shard bytes of
// Append(Read(..)), or the same error. It also pins the structural walk
// behind the copy path to its definition: canonicalPayload accepts a
// payload exactly when it decodes and re-encodes to itself.
func FuzzCopyMatchesReencode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	traced := randRecord(rng, 9)
	for traced.Trace == nil {
		traced = randRecord(rng, 9)
	}
	for _, rec := range []*Record{specialRecord(7), traced, smallRecord(2)} {
		for _, codec := range []Codec{CodecRaw, CodecDelta} {
			p := storedPayload(f, f.TempDir(), codec, rec)
			f.Add(false, p)
			f.Add(false, append(p[:len(p):len(p)], 0)) // trailing byte
			f.Add(false, p[:len(p)-1])                 // truncated
		}
		f.Add(true, appendRawPayload(nil, rec))
	}
	padded, _ := nonMinimalDelta(f)
	f.Add(false, padded)
	wide := []byte{codecByteRaw}
	wide = u64(wide, 1)
	wide = u32(wide, 0)          // no params
	wide = u32(wide, 0xFFFFFFFF) // a huge width with no rows
	wide = u32(wide, 0)
	wide = u32(wide, 0) // no metrics
	wide = u32(wide, 0) // no trace
	f.Add(false, wide)
	f.Add(false, []byte{})
	f.Add(false, []byte{codecByteDelta})
	f.Add(false, []byte{0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, v1 bool, payload []byte) {
		src := t.TempDir()
		payloadShard(t, src, v1, payload)
		a, err := OpenDir(src)
		if err != nil {
			t.Fatalf("a well-framed shard must open: %v", err)
		}
		defer a.Close()
		_, decodeErr := decodePayload(payload, 2)
		if !v1 && canonicalPayload(payload) && decodeErr != nil {
			t.Fatalf("walk accepted a payload the decoder rejects: %v", decodeErr)
		}
		for _, codec := range []Codec{CodecRaw, CodecDelta} {
			got, gotErr := writeOneShard(t, codec, func(w *Writer) error { return w.Copy(a, 7) })
			want, wantErr := writeOneShard(t, codec, reencode(a, 7))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("codec %v: Copy error %v, re-encode error %v", codec, gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("codec %v: Copy wrote %d shard bytes that differ from re-encode's %d", codec, len(got), len(want))
			}
			if v1 || wantErr != nil || payload[0] != codec.wireByte() {
				continue
			}
			// want's first frame holds the payload re-encoded in its own
			// codec.
			end := headerLen + 8 + len(payload)
			isCanon := binary.LittleEndian.Uint32(want[headerLen+4:]) == uint32(len(payload)) &&
				bytes.Equal(want[headerLen+8:end], payload)
			if canonicalPayload(payload) != isCanon {
				t.Fatalf("codec %v: canonicalPayload = %v, but re-encoding reproduces the payload: %v",
					codec, !isCanon, isCanon)
			}
		}
	})
}

// TestCopyTakesTheCopyPath pins that every payload the Writer itself
// produces passes the structural walk — so a merge of writer output
// moves bytes instead of re-encoding them — while a padded uvarint
// does not and is rewritten to the canonical bytes.
func TestCopyTakesTheCopyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		rec := randRecord(rng, uint64(i))
		if i%4 == 3 {
			rec = specialRecord(uint64(i))
		}
		for _, codec := range []Codec{CodecRaw, CodecDelta} {
			if p := storedPayload(t, t.TempDir(), codec, rec); !canonicalPayload(p) {
				t.Fatalf("record %d (%v): the writer's own payload fails the walk", i, codec)
			}
		}
	}
	padded, canonical := nonMinimalDelta(t)
	if canonicalPayload(padded) {
		t.Fatal("walk accepted a padded uvarint")
	}
	src := t.TempDir()
	payloadShard(t, src, false, padded)
	a, err := OpenDir(src)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data, err := writeOneShard(t, CodecDelta, func(w *Writer) error { return w.Copy(a, 7) })
	if err != nil {
		t.Fatal(err)
	}
	if got := data[headerLen+8 : headerLen+8+len(canonical)]; !bytes.Equal(got, canonical) {
		t.Fatal("Copy of a padded payload did not write the canonical encoding")
	}
}

// TestCopySteadyStateAllocs pins the copy path's allocation budget:
// once the writer's frame scratch has grown, copying a canonical
// record allocates nothing.
func TestCopySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates absolute allocation counts")
	}
	src := t.TempDir()
	w, err := Create(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 64; i++ {
		rec := randRecord(rng, uint64(i))
		rec.Trace = nil // a trace is decoded to be checked
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := OpenDir(src)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dst, err := Create(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Abort()
	dst.ents = make([]indexEntry, 0, 4096) // keep index growth out of the window
	next := uint64(0)
	copyOne := func() {
		if err := dst.Copy(a, next%64); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 64; i++ {
		copyOne()
	}
	if allocs := testing.AllocsPerRun(200, copyOne); allocs != 0 {
		t.Fatalf("Copy allocates %.1f times per canonical record, want 0", allocs)
	}
}

// TestCopyInjectedWriteErrorHeals: a fault injected into a copied
// frame's write fails that Copy only; the writer truncates the damage
// away and the shard seals as if the record had never been offered.
func TestCopyInjectedWriteErrorHeals(t *testing.T) {
	defer failpoint.Reset()
	src := t.TempDir()
	w, err := Create(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if err := w.Append(smallRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := OpenDir(src)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	boom := errors.New("transient")
	got, err := writeOneShard(t, CodecDelta, func(w *Writer) error {
		if err := w.Copy(a, 0); err != nil {
			return err
		}
		failpoint.Enable(SiteWrite, failpoint.TearAt(1, 5, boom))
		if err := w.Copy(a, 1); !errors.Is(err, boom) {
			return fmt.Errorf("Copy error = %v, want the injected fault", err)
		}
		failpoint.Disable(SiteWrite)
		return w.Copy(a, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := writeOneShard(t, CodecDelta, func(w *Writer) error {
		if err := w.Copy(a, 0); err != nil {
			return err
		}
		return w.Copy(a, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a healed Copy left different shard bytes than skipping the record")
	}
}
