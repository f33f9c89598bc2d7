package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"mime"
	"sort"
	"strings"
)

// Binary codec for /v1/query, negotiated per request with
// Accept/Content-Type: application/x-smartstore-bin (JSON stays the
// default). The codec reuses the WAL framing idiom: every frame is
//
//	[4B LE payload length][4B LE CRC-32C of payload][payload]
//
// with payload[0] naming the frame type. A request is exactly one
// frame. A response is a *stream* of frames — header, then id chunks,
// then record chunks, then a trailer carrying the report and flags —
// so a large range/top-k answer is encoded and written in bounded
// memory instead of one full-response buffer. A batch response is an
// envelope frame followed by each result's own frame stream.
//
// All integers are little-endian; signed ints travel as two's
// complement u64; floats as raw IEEE-754 bits (bit-exact, matching
// Go's JSON float64 round-trip). Strings and byte blobs are
// u32-length-prefixed. Slice fields that are omitempty in the JSON
// form are guarded by presence flags and decode to nil when absent,
// so a value decoded from either codec is identical; the trailer's
// idsNil flag preserves nil-vs-empty for the non-omitempty "ids"
// field. See DESIGN.md §5 for the byte-level reference.

// ContentType is the media type of the binary codec.
const ContentType = "application/x-smartstore-bin"

// Version is the codec version carried in request, response-header
// and batch-envelope frames. Decoders reject other versions.
const Version = 1

// MaxFrame bounds a single frame payload. Chunked response encoding
// keeps every frame far below it; a request (single or 256-query
// batch) fits trivially.
const MaxFrame = 4 << 20

// Frame types (payload[0]).
const (
	frameRequest        = 0x01 // one QueryRequest (single or batch)
	frameResponseHeader = 0x10 // starts a QueryResponse stream
	frameIDChunk        = 0x11 // a run of ids (+ aligned dists)
	frameRecordChunk    = 0x12 // a run of file records
	frameTrailer        = 0x13 // ends a QueryResponse stream
	frameBatchEnvelope  = 0x20 // starts a BatchQueryResponse
)

// Chunking knobs. idChunkSize ids per id frame (32 KiB of ids, 64 KiB
// with dists); record frames flush once the frame under construction
// passes recordChunkBytes.
const (
	idChunkSize      = 4096
	recordChunkBytes = 256 << 10
)

// frameHeaderSize is the fixed per-frame overhead: length + CRC.
const frameHeaderSize = 8

// MaxEncodedWrite is the largest single Write a response encoder
// issues — the bounded-memory guarantee tests assert against it.
const MaxEncodedWrite = MaxFrame + frameHeaderSize

// Trailer flag bits.
const (
	flagIDsNil    = 1 << 0 // IDs was nil (vs empty) — "ids" is not omitempty
	flagTruncated = 1 << 1
	flagCached    = 1 << 2
	flagPartial   = 1 << 3
	flagHasError  = 1 << 4
	flagHasTrace  = 1 << 5
)

// Request flag bits.
const (
	reqFlagBatch = 1 << 0 // Queries list present (batch request)
)

// Per-query flag bits.
const (
	qFlagIncludeRecords = 1 << 0
	qFlagIncludeDists   = 1 << 1
	qFlagHasAttrs       = 1 << 2
	qFlagHasLo          = 1 << 3
	qFlagHasHi          = 1 << 4
	qFlagHasPoint       = 1 << 5
)

// Per-record flag bits.
const (
	recFlagAttrsNil = 1 << 0 // Attrs map was nil (vs empty)
)

// ErrMalformed tags every decode failure: bad framing, CRC mismatch,
// short payload, unknown version or frame type, trailing garbage.
// Servers answer it with 400.
var ErrMalformed = errors.New("malformed binary frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func malformed(format string, args ...any) error {
	return fmt.Errorf("wire: %w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// IsBinary reports whether a Content-Type header names the binary
// codec (parameters ignored).
func IsBinary(contentType string) bool {
	if contentType == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		// Fall back to a trimmed comparison; an unparseable header
		// that still literally names the type counts.
		mt = strings.TrimSpace(strings.Split(contentType, ";")[0])
	}
	return strings.EqualFold(mt, ContentType)
}

// Accepts reports whether an Accept header asks for the binary codec.
// Only an explicit mention opts in — */* keeps the JSON default, so
// ordinary HTTP clients never see binary frames by surprise.
func Accepts(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.Split(part, ";")[0])
		if strings.EqualFold(mt, ContentType) {
			return true
		}
	}
	return false
}

// --- encoding primitives -------------------------------------------------

// enc builds one frame payload in place, with the 8-byte frame header
// reserved at the front so the finished frame goes out in one Write.
type enc struct {
	buf []byte
}

func (e *enc) begin(frameType byte) {
	if cap(e.buf) < frameHeaderSize+1 {
		e.buf = make([]byte, 0, 4096)
	}
	e.buf = e.buf[:frameHeaderSize]
	e.buf = append(e.buf, frameType)
}

func (e *enc) u8(v byte)    { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// finish seals the frame header and returns the complete frame.
func (e *enc) finish() ([]byte, error) {
	payload := e.buf[frameHeaderSize:]
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d exceeds %d bytes", len(payload), MaxFrame)
	}
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[4:8], crc32.Checksum(payload, castagnoli))
	return e.buf, nil
}

func (e *enc) report(r Report) {
	e.f64(r.Latency)
	e.i64(r.Messages)
	e.i64(int64(r.Hops))
	e.i64(int64(r.UnitsSearched))
}

func (e *enc) wireQuery(q *WireQuery) {
	var flags byte
	if q.IncludeRecords {
		flags |= qFlagIncludeRecords
	}
	if q.IncludeDists {
		flags |= qFlagIncludeDists
	}
	if len(q.Attrs) > 0 {
		flags |= qFlagHasAttrs
	}
	if len(q.Lo) > 0 {
		flags |= qFlagHasLo
	}
	if len(q.Hi) > 0 {
		flags |= qFlagHasHi
	}
	if len(q.Point) > 0 {
		flags |= qFlagHasPoint
	}
	e.u8(flags)
	e.str(q.Kind)
	e.str(q.Path)
	e.str(q.Mode)
	e.i64(int64(q.K))
	e.i64(int64(q.Limit))
	if flags&qFlagHasAttrs != 0 {
		e.u32(uint32(len(q.Attrs)))
		for _, a := range q.Attrs {
			e.str(a)
		}
	}
	for _, vec := range [][]float64{q.Lo, q.Hi, q.Point} {
		if len(vec) == 0 {
			continue
		}
		e.u32(uint32(len(vec)))
		for _, v := range vec {
			e.f64(v)
		}
	}
}

func (e *enc) record(r *FileRecord) {
	var flags byte
	if r.Attrs == nil {
		flags |= recFlagAttrsNil
	}
	e.u8(flags)
	e.u64(r.ID)
	e.str(r.Path)
	e.u32(uint32(len(r.Attrs)))
	if len(r.Attrs) == 0 {
		return
	}
	names := make([]string, 0, len(r.Attrs))
	for name := range r.Attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.str(name)
		e.f64(r.Attrs[name])
	}
}

// EncodeRequest encodes a QueryRequest as one binary frame — the body
// a binary-speaking client POSTs to /v1/query.
func EncodeRequest(req *QueryRequest) ([]byte, error) {
	var e enc
	e.begin(frameRequest)
	e.u8(Version)
	if len(req.Queries) > 0 {
		e.u8(reqFlagBatch)
		e.u32(uint32(len(req.Queries)))
		for i := range req.Queries {
			e.wireQuery(&req.Queries[i])
		}
	} else {
		e.u8(0)
		e.wireQuery(&req.WireQuery)
	}
	frame, err := e.finish()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(frame))
	copy(out, frame)
	return out, nil
}

// --- streaming response encoder ------------------------------------------

// ResponseEncoder streams one QueryResponse as a frame sequence:
// header, id chunks, record chunks, trailer. Every frame goes out in
// a single Write of at most MaxEncodedWrite bytes, so encoding a
// 100k-record answer never builds a full-response buffer. Methods
// must be called in order: WriteHeader, WriteIDs, WriteRecords,
// WriteTrailer; the first error sticks and the rest become no-ops.
type ResponseEncoder struct {
	w   io.Writer
	e   enc
	err error
}

// NewResponseEncoder returns an encoder streaming to w.
func NewResponseEncoder(w io.Writer) *ResponseEncoder {
	return &ResponseEncoder{w: w}
}

func (s *ResponseEncoder) flush() {
	if s.err != nil {
		return
	}
	frame, err := s.e.finish()
	if err != nil {
		s.err = err
		return
	}
	_, s.err = s.w.Write(frame)
}

// WriteHeader starts the response stream.
func (s *ResponseEncoder) WriteHeader(kind string) {
	if s.err != nil {
		return
	}
	s.e.begin(frameResponseHeader)
	s.e.u8(Version)
	s.e.str(kind)
	s.flush()
}

// WriteIDs streams the answer ids in chunks of idChunkSize, with
// dists (when non-empty) aligned chunk by chunk. len(dists) must be 0
// or len(ids).
func (s *ResponseEncoder) WriteIDs(ids []uint64, dists []float64) {
	if s.err != nil {
		return
	}
	if len(dists) != 0 && len(dists) != len(ids) {
		s.err = fmt.Errorf("wire: %d dists for %d ids", len(dists), len(ids))
		return
	}
	for off := 0; off < len(ids); off += idChunkSize {
		end := off + idChunkSize
		if end > len(ids) {
			end = len(ids)
		}
		s.e.begin(frameIDChunk)
		hasDists := byte(0)
		if len(dists) != 0 {
			hasDists = 1
		}
		s.e.u8(hasDists)
		s.e.u32(uint32(end - off))
		for _, id := range ids[off:end] {
			s.e.u64(id)
		}
		if hasDists != 0 {
			for _, d := range dists[off:end] {
				s.e.f64(d)
			}
		}
		s.flush()
		if s.err != nil {
			return
		}
	}
}

// WriteRecords streams inline file records, starting a new frame
// whenever the one under construction passes recordChunkBytes.
func (s *ResponseEncoder) WriteRecords(records []FileRecord) {
	if s.err != nil || len(records) == 0 {
		return
	}
	off := 0
	for off < len(records) {
		s.e.begin(frameRecordChunk)
		// Reserve the count and backfill once the chunk is cut.
		countAt := len(s.e.buf)
		s.e.u32(0)
		n := 0
		for off < len(records) && len(s.e.buf) < frameHeaderSize+recordChunkBytes {
			s.e.record(&records[off])
			off++
			n++
		}
		binary.LittleEndian.PutUint32(s.e.buf[countAt:], uint32(n))
		s.flush()
		if s.err != nil {
			return
		}
	}
}

// WriteTrailer ends the stream with the response's scalar state:
// count, flags, report, error, and (when present) the trace as
// length-prefixed JSON. resp's IDs/Dists/Records are NOT re-encoded
// here — only their nil-ness, via flagIDsNil.
func (s *ResponseEncoder) WriteTrailer(resp *QueryResponse) {
	if s.err != nil {
		return
	}
	var trace []byte
	if resp.Trace != nil {
		var err error
		trace, err = json.Marshal(resp.Trace)
		if err != nil {
			s.err = fmt.Errorf("wire: encode trace: %w", err)
			return
		}
	}
	s.e.begin(frameTrailer)
	var flags uint16
	if resp.IDs == nil {
		flags |= flagIDsNil
	}
	if resp.Truncated {
		flags |= flagTruncated
	}
	if resp.Cached {
		flags |= flagCached
	}
	if resp.Partial {
		flags |= flagPartial
	}
	if resp.Error != "" {
		flags |= flagHasError
	}
	if trace != nil {
		flags |= flagHasTrace
	}
	s.e.u16(flags)
	s.e.i64(int64(resp.Count))
	s.e.report(resp.Report)
	if resp.Error != "" {
		s.e.str(resp.Error)
	}
	if trace != nil {
		s.e.bytes(trace)
	}
	s.flush()
}

// Err returns the first error the encoder hit, if any.
func (s *ResponseEncoder) Err() error { return s.err }

// EncodeResponse streams resp to w as a complete frame sequence.
func EncodeResponse(w io.Writer, resp *QueryResponse) error {
	s := NewResponseEncoder(w)
	s.WriteHeader(resp.Kind)
	s.WriteIDs(resp.IDs, resp.Dists)
	s.WriteRecords(resp.Records)
	s.WriteTrailer(resp)
	return s.Err()
}

// EncodeBatchResponse streams a batch answer: an envelope frame with
// the result count, then each result's own frame sequence in order.
func EncodeBatchResponse(w io.Writer, batch *BatchQueryResponse) error {
	var e enc
	e.begin(frameBatchEnvelope)
	e.u8(Version)
	e.u32(uint32(len(batch.Results)))
	frame, err := e.finish()
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return err
	}
	for i := range batch.Results {
		if err := EncodeResponse(w, &batch.Results[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- decoding primitives -------------------------------------------------

// dec is a bounds-checked sticky-error reader over one frame payload,
// mirroring the WAL codec decoder: the first malformed read poisons
// every later one, so call sites check err once at the end.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = malformed(format, args...)
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("payload truncated at offset %d (need %d of %d)", d.off, n, len(d.buf))
		return false
	}
	return true
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) intVal() int  { return int(d.i64()) }

func (d *dec) str() string {
	n := int(d.u32())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) rawBytes() []byte {
	n := int(d.u32())
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// count reads an element count and rejects one that cannot fit the
// remaining payload at minSize bytes per element — the allocation
// bound that keeps a hostile 4-byte count from forcing a giant make.
func (d *dec) count(minSize int, what string) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.remaining()/minSize+1 {
		d.fail("%s count %d exceeds payload", what, n)
		return 0
	}
	return n
}

func (d *dec) rejectTrailing(what string) {
	if d.err == nil && d.off != len(d.buf) {
		d.fail("%d trailing bytes after %s", len(d.buf)-d.off, what)
	}
}

func (d *dec) report() Report {
	return Report{
		Latency:       d.f64(),
		Messages:      d.i64(),
		Hops:          d.intVal(),
		UnitsSearched: d.intVal(),
	}
}

func (d *dec) wireQuery() WireQuery {
	flags := d.u8()
	q := WireQuery{
		Kind:           d.str(),
		Path:           d.str(),
		Mode:           d.str(),
		K:              d.intVal(),
		Limit:          d.intVal(),
		IncludeRecords: flags&qFlagIncludeRecords != 0,
		IncludeDists:   flags&qFlagIncludeDists != 0,
	}
	if flags&qFlagHasAttrs != 0 {
		n := d.count(4, "attr")
		if d.err != nil {
			return q
		}
		q.Attrs = make([]string, n)
		for i := range q.Attrs {
			q.Attrs[i] = d.str()
		}
	}
	for _, dst := range []struct {
		flag byte
		vec  *[]float64
	}{{qFlagHasLo, &q.Lo}, {qFlagHasHi, &q.Hi}, {qFlagHasPoint, &q.Point}} {
		if flags&dst.flag == 0 {
			continue
		}
		n := d.count(8, "vector")
		if d.err != nil {
			return q
		}
		*dst.vec = make([]float64, n)
		for i := range *dst.vec {
			(*dst.vec)[i] = d.f64()
		}
	}
	return q
}

func (d *dec) record() FileRecord {
	flags := d.u8()
	r := FileRecord{ID: d.u64(), Path: d.str()}
	// Min attr pair: 4-byte name length + 8-byte value.
	n := d.count(12, "attr")
	if d.err != nil {
		return r
	}
	if flags&recFlagAttrsNil == 0 {
		r.Attrs = make(map[string]float64, n)
	} else if n != 0 {
		d.fail("nil-attrs record carries %d attrs", n)
		return r
	}
	for i := 0; i < n; i++ {
		name := d.str()
		v := d.f64()
		if d.err != nil {
			return r
		}
		r.Attrs[name] = v
	}
	return r
}

// splitFrame parses one frame off the front of buf, validating length
// and CRC, and returns (frameType, payload, rest).
func splitFrame(buf []byte) (byte, []byte, []byte, error) {
	if len(buf) < frameHeaderSize {
		return 0, nil, nil, malformed("frame header truncated (%d bytes)", len(buf))
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n == 0 || n > MaxFrame {
		return 0, nil, nil, malformed("frame payload length %d out of range", n)
	}
	if uint32(len(buf)-frameHeaderSize) < n {
		return 0, nil, nil, malformed("frame payload truncated (have %d of %d bytes)", len(buf)-frameHeaderSize, n)
	}
	payload := buf[frameHeaderSize : frameHeaderSize+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return 0, nil, nil, malformed("frame CRC mismatch (got %08x want %08x)", got, want)
	}
	return payload[0], payload, buf[frameHeaderSize+int(n):], nil
}

// readFrame reads one complete frame from r, validating length and
// CRC, and returns (frameType, payload).
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, malformed("frame header truncated: %v", err)
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > MaxFrame {
		return 0, nil, malformed("frame payload length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, malformed("frame payload truncated: %v", err)
		}
		return 0, nil, err
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return 0, nil, malformed("frame CRC mismatch (got %08x want %08x)", got, want)
	}
	return payload[0], payload, nil
}

// DecodeRequest decodes a binary /v1/query request body: exactly one
// request frame, nothing after it. Every failure wraps ErrMalformed.
func DecodeRequest(body []byte) (*QueryRequest, error) {
	ft, payload, rest, err := splitFrame(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, malformed("%d trailing bytes after request frame", len(rest))
	}
	if ft != frameRequest {
		return nil, malformed("unexpected frame type 0x%02x (want request)", ft)
	}
	d := &dec{buf: payload, off: 1}
	if v := d.u8(); d.err == nil && v != Version {
		return nil, malformed("unsupported codec version %d", v)
	}
	flags := d.u8()
	req := &QueryRequest{}
	if flags&reqFlagBatch != 0 {
		// Min query: flags + three empty strings + two ints.
		n := d.count(29, "query")
		if d.err != nil {
			return nil, d.err
		}
		if n == 0 {
			return nil, malformed("batch request with zero queries")
		}
		req.Queries = make([]WireQuery, n)
		for i := range req.Queries {
			req.Queries[i] = d.wireQuery()
		}
	} else {
		req.WireQuery = d.wireQuery()
	}
	d.rejectTrailing("request")
	if d.err != nil {
		return nil, d.err
	}
	return req, nil
}

// responseDecoder accumulates one QueryResponse from its frame
// stream.
type responseDecoder struct {
	resp      QueryResponse
	gotHeader bool
	done      bool
	hasDists  int8 // -1 unknown, 0 no, 1 yes
}

func (rd *responseDecoder) frame(ft byte, payload []byte) error {
	d := &dec{buf: payload, off: 1}
	switch ft {
	case frameResponseHeader:
		if rd.gotHeader {
			return malformed("duplicate response header frame")
		}
		if v := d.u8(); d.err == nil && v != Version {
			return malformed("unsupported codec version %d", v)
		}
		rd.resp.Kind = d.str()
		d.rejectTrailing("response header")
		rd.gotHeader = true
		rd.hasDists = -1
		return d.err
	case frameIDChunk:
		if !rd.gotHeader {
			return malformed("id chunk before response header")
		}
		hasDists := d.u8()
		n := d.count(8, "id")
		if d.err != nil {
			return d.err
		}
		want := int8(0)
		if hasDists != 0 {
			want = 1
		}
		if rd.hasDists == -1 {
			rd.hasDists = want
		} else if rd.hasDists != want {
			return malformed("inconsistent dists presence across id chunks")
		}
		for i := 0; i < n; i++ {
			rd.resp.IDs = append(rd.resp.IDs, d.u64())
		}
		if hasDists != 0 {
			for i := 0; i < n; i++ {
				rd.resp.Dists = append(rd.resp.Dists, d.f64())
			}
		}
		d.rejectTrailing("id chunk")
		return d.err
	case frameRecordChunk:
		if !rd.gotHeader {
			return malformed("record chunk before response header")
		}
		// Min record: flags + id + empty path + attr count.
		n := d.count(17, "record")
		if d.err != nil {
			return d.err
		}
		for i := 0; i < n; i++ {
			rec := d.record()
			if d.err != nil {
				return d.err
			}
			rd.resp.Records = append(rd.resp.Records, rec)
		}
		d.rejectTrailing("record chunk")
		return d.err
	case frameTrailer:
		if !rd.gotHeader {
			return malformed("trailer before response header")
		}
		flags := d.u16()
		rd.resp.Count = d.intVal()
		rd.resp.Report = d.report()
		rd.resp.Truncated = flags&flagTruncated != 0
		rd.resp.Cached = flags&flagCached != 0
		rd.resp.Partial = flags&flagPartial != 0
		if flags&flagHasError != 0 {
			rd.resp.Error = d.str()
		}
		if flags&flagHasTrace != 0 {
			traceJSON := d.rawBytes()
			if d.err == nil {
				tr := &TraceWire{}
				if err := json.Unmarshal(traceJSON, tr); err != nil {
					return malformed("trailer trace: %v", err)
				}
				rd.resp.Trace = tr
			}
		}
		d.rejectTrailing("trailer")
		if d.err != nil {
			return d.err
		}
		if flags&flagIDsNil != 0 {
			if len(rd.resp.IDs) != 0 {
				return malformed("ids-nil trailer after %d streamed ids", len(rd.resp.IDs))
			}
			rd.resp.IDs = nil
		} else if rd.resp.IDs == nil {
			rd.resp.IDs = []uint64{}
		}
		if len(rd.resp.Dists) != 0 && len(rd.resp.Dists) != len(rd.resp.IDs) {
			return malformed("%d dists for %d ids", len(rd.resp.Dists), len(rd.resp.IDs))
		}
		rd.done = true
		return nil
	default:
		return malformed("unexpected frame type 0x%02x in response stream", ft)
	}
}

// decodeResponseStream reads frames from r until a trailer completes
// one response.
func decodeResponseStream(r io.Reader) (*QueryResponse, error) {
	rd := &responseDecoder{}
	for !rd.done {
		ft, payload, err := readFrame(r)
		if err != nil {
			return nil, err
		}
		if err := rd.frame(ft, payload); err != nil {
			return nil, err
		}
	}
	return &rd.resp, nil
}

// DecodeResponse decodes one binary QueryResponse frame stream from r
// (the body of a single-query reply).
func DecodeResponse(r io.Reader) (*QueryResponse, error) {
	return decodeResponseStream(r)
}

// DecodeResponseBytes decodes a complete single-response body held in
// memory, rejecting trailing bytes — what the fuzz target and the
// client (which reads whole bodies) use.
func DecodeResponseBytes(body []byte) (*QueryResponse, error) {
	br := &byteFrames{buf: body}
	resp, err := decodeResponseStream(br)
	if err != nil {
		return nil, err
	}
	if len(br.buf) != 0 {
		return nil, malformed("%d trailing bytes after response", len(br.buf))
	}
	return resp, nil
}

// DecodeBatchResponseBytes decodes a complete binary batch body held
// in memory — envelope frame, then one response stream per result —
// rejecting trailing bytes. It is the reference decoder the fuzz target
// and the batch tests check the server's encoder against.
func DecodeBatchResponseBytes(body []byte) (*BatchQueryResponse, error) {
	br := &byteFrames{buf: body}
	ft, payload, err := readFrame(br)
	if err != nil {
		return nil, err
	}
	if ft != frameBatchEnvelope {
		return nil, malformed("unexpected frame type 0x%02x (want batch envelope)", ft)
	}
	d := &dec{buf: payload, off: 1}
	if v := d.u8(); d.err == nil && v != Version {
		return nil, malformed("unsupported codec version %d", v)
	}
	n := int(d.u32())
	d.rejectTrailing("batch envelope")
	if d.err != nil {
		return nil, d.err
	}
	// An empty batch is never produced (the server rejects zero
	// queries), but tolerate it; bound n only loosely — each result
	// is itself framed and validated.
	if n < 0 || n > 1<<20 {
		return nil, malformed("batch result count %d out of range", n)
	}
	batch := &BatchQueryResponse{Results: make([]QueryResponse, 0, min(n, 4096))}
	for i := 0; i < n; i++ {
		resp, err := decodeResponseStream(br)
		if err != nil {
			return nil, err
		}
		batch.Results = append(batch.Results, *resp)
	}
	if len(br.buf) != 0 {
		return nil, malformed("%d trailing bytes after batch response", len(br.buf))
	}
	return batch, nil
}

// byteFrames adapts an in-memory buffer to the frame reader without
// copying payloads.
type byteFrames struct {
	buf []byte
}

func (b *byteFrames) Read(p []byte) (int, error) {
	if len(b.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.buf)
	b.buf = b.buf[n:]
	return n, nil
}
