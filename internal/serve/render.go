package serve

import (
	"io"
	"math"
	"sync"

	"repro/internal/archive"
)

// AppendRow appends the NDJSON encoding of one sample row to dst and
// returns the extended slice:
//
//	{"t":<t>,"y":[<y0>,<y1>,…]}\n
//
// Floats render in the shortest form that parses back to the exact
// same bits, byte-identical to strconv.AppendFloat(…, 'g', -1, 64)
// (appendFloat; the encoder oracle tests pin the equality), so equal
// float64 inputs always render to equal bytes. That single renderer is
// what makes the service's byte-identity guarantees hold: a fresh run
// renders rows straight off the solver's reused sample buffer, a cache
// hit renders the bitwise-exact rows decoded from the archive, and the
// two bodies match byte for byte.
func AppendRow(dst []byte, t float64, y []float64) []byte {
	dst = append(dst, `{"t":`...)
	dst = appendFloat(dst, t)
	dst = append(dst, `,"y":[`...)
	for i, v := range y {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, v)
	}
	dst = append(dst, ']', '}', '\n')
	return dst
}

// maxFloatLen is the longest shortest-form float64:
// "-2.2250738585072014e-308".
const maxFloatLen = 24

// chunkSize is how many bytes a cache-hit stream renders before it
// hands them to the ResponseWriter.
const chunkSize = 32 << 10

// chunkPool recycles the cache-hit streams' render buffers. The 4 KiB
// over chunkSize holds the row that crosses it without a regrow.
var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, 0, chunkSize+4<<10)
	return &b
}}

// renderRows appends rec's rows from row k on to buf, stopping after
// the row that takes buf to limit bytes or more, and returns the
// extended buffer and the next row to render.
func renderRows(buf []byte, rec *archive.Record, k, limit int) ([]byte, int) {
	for ; k < rec.NSamples() && len(buf) < limit; k++ {
		buf = AppendRow(buf, rec.Ts[k], rec.Row(k))
	}
	return buf, k
}

// RenderRecord renders an archived record to the NDJSON body its
// original run streamed. The archive round trip is bitwise-exact and
// AppendRow is deterministic, so the output equals the original bytes.
func RenderRecord(rec *archive.Record) []byte {
	rowMax := len(`{"t":,"y":[]}`+"\n") + maxFloatLen + rec.Width*(maxFloatLen+1)
	out, _ := renderRows(make([]byte, 0, rec.NSamples()*rowMax), rec, 0, math.MaxInt)
	return out
}

// writeRecord streams the RenderRecord body of rec to w in chunkSize
// pieces rendered into a pooled buffer. It stops at the first failed
// Write and reports whether the whole body was written.
func writeRecord(w io.Writer, rec *archive.Record) bool {
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	for k := 0; k < rec.NSamples(); {
		*bp, k = renderRows((*bp)[:0], rec, k, chunkSize)
		if _, err := w.Write(*bp); err != nil {
			return false
		}
	}
	return true
}
