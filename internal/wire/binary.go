package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mcn/internal/core"
	"mcn/internal/graph"
)

// Binary frame codec — the compact sibling of the JSON envelopes, spoken on
// POST /v1/query when Content-Type/Accept is ContentTypeBinary. A frame is
//
//	len:uint32 LE | payload
//
// where payload opens with a fixed little-endian header
//
//	magic "MCNB" (4 bytes) | version:uint8 | kind:uint8 | flags:uint16 LE
//
// followed by a kind-specific body. Node/facility ids, counts and stats are
// unsigned varints; request-side floats (t, weights, budgets, period bounds)
// stay float64 LE so both codecs execute the identical query; response-side
// cost vectors and scores narrow to float32 LE, with the NaN/±Inf sentinels
// surviving the conversion (float32(NaN) is NaN, float32(±Inf) is ±Inf).
// The framing is transport-independent: the length prefix delimits messages
// over any persistent byte stream, and over HTTP the frame is simply the
// request/response body.
const (
	// ContentTypeBinary negotiates the binary codec on /v1/query.
	ContentTypeBinary = "application/x-mcn-frame"
	// ContentTypeJSON is the JSON codec's media type.
	ContentTypeJSON = "application/json"

	// BinaryVersion is the frame version this codec writes and accepts.
	BinaryVersion = 1

	frameHeaderLen = 8
	lenPrefixLen   = 4

	// MaxRequestFrame / MaxResponseFrame bound what each side will read:
	// requests are tiny (a handful of varints and floats), responses carry
	// whole result sets.
	MaxRequestFrame  = 1 << 20
	MaxResponseFrame = 64 << 20
)

// Frame kind bytes. Requests are 1..8, in Kinds order; responses use the high
// range so a stream peer can tell the direction of a stray frame.
const (
	frameSkyline = 1

	frameResult       = 0x40
	framePeriodResult = 0x41
	frameError        = 0x7F
)

var magic = [4]byte{'M', 'C', 'N', 'B'}

// kindBytes maps request kind paths to their frame kind byte (Kinds order,
// from 1) and reqKinds is the inverse. A response frame carries the kind byte
// of the request that produced it in place of the envelope's Query label, so
// the string never travels on the wire: queryKinds and queryNames map the
// label to the byte and back.
var (
	kindBytes  = map[string]byte{}
	reqKinds   = map[byte]string{}
	queryKinds = map[string]byte{}
	queryNames = map[byte]string{}
)

func init() {
	for i, kind := range Kinds {
		b := byte(frameSkyline + i)
		name := (&Request{Kind: kind}).QueryName()
		kindBytes[kind], reqKinds[b] = b, kind
		queryKinds[name], queryNames[b] = b, name
	}
}

// Response is one decoded response frame: exactly one of Result or Period is
// set on success; Status/Message carry an error frame.
type Response struct {
	Result  *Result
	Period  *PeriodResult
	Status  int
	Message string
}

// ReadFrame reads one length-prefixed frame payload, rejecting frames larger
// than max before allocating.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var pfx [lenPrefixLen]byte
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(pfx[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// beginFrame appends a length prefix to be patched by endFrame, then the
// fixed frame header for kind.
func beginFrame(dst []byte, kind byte) []byte {
	dst = append(dst, 0, 0, 0, 0, magic[0], magic[1], magic[2], magic[3], BinaryVersion, kind)
	return binary.LittleEndian.AppendUint16(dst, 0) // flags, reserved
}

// endFrame patches the length prefix of the frame starting at dst[start].
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-lenPrefixLen))
	return dst
}

// grow returns dst with room for n more bytes, in at most one allocation.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// checkHeader validates the fixed header and returns the kind byte and body.
func checkHeader(payload []byte) (byte, []byte, error) {
	if len(payload) < frameHeaderLen {
		return 0, nil, fmt.Errorf("wire: frame payload of %d bytes is shorter than the header", len(payload))
	}
	if [4]byte(payload[:4]) != magic {
		return 0, nil, fmt.Errorf("wire: bad frame magic %q", payload[:4])
	}
	if v := payload[4]; v != BinaryVersion {
		return 0, nil, fmt.Errorf("wire: unsupported frame version %d", v)
	}
	return payload[5], payload[frameHeaderLen:], nil
}

// reader consumes varints and fixed-width values from a frame body, latching
// the first error so call sites read straight-line.
type reader struct {
	buf   []byte
	err   error
	costs []float64 // backs the decoded facilities' cost vectors
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or malformed %s", what)
	}
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) f64(what string) float64 {
	if r.err != nil || len(r.buf) < 8 {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

func (r *reader) f32(what string) float64 {
	if r.err != nil || len(r.buf) < 4 {
		r.fail(what)
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(r.buf))
	r.buf = r.buf[4:]
	return float64(v)
}

// count reads a length whose elements occupy at least elemSize bytes each,
// bounding it by the remaining buffer so a corrupt frame cannot force a huge
// allocation.
func (r *reader) count(what string, elemSize int) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(len(r.buf)/elemSize) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func (r *reader) bytes(what string, n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.fail(what)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendF32(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(f)))
}

func appendF64s(dst []byte, fs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = appendF64(dst, f)
	}
	return dst
}

func (r *reader) f64s(what string) []float64 {
	n := r.count(what, 8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64(what)
	}
	return out
}

// EncodeRequest renders q as a complete binary frame (length prefix
// included), ready to POST to /v1/query.
func EncodeRequest(q *Request) ([]byte, error) {
	kind, ok := kindBytes[q.Kind]
	if !ok {
		return nil, fmt.Errorf("wire: unknown query kind %q", q.Kind)
	}
	var eng byte
	switch q.Engine {
	case "", "cea":
		eng = 0
	case "lsa":
		eng = 1
	default:
		return nil, fmt.Errorf("wire: unknown engine %q", q.Engine)
	}
	// One allocation, sized by a bound on the frame (a varint is at most 10 bytes).
	b := beginFrame(make([]byte, 0, 96+10*len(q.Edges)+8*(len(q.Ts)+len(q.Weights)+len(q.Budget))), kind)
	b = binary.AppendVarint(b, int64(q.TimeoutMS))
	b = append(b, eng)
	if q.Scatter() {
		b = binary.AppendUvarint(b, uint64(len(q.Edges)))
		for _, e := range q.Edges {
			b = binary.AppendVarint(b, int64(e))
		}
		b = appendF64s(b, q.Ts)
		b = binary.AppendVarint(b, int64(q.Cost))
	} else {
		b = binary.AppendVarint(b, int64(q.Edge))
		b = appendF64(b, q.T)
	}
	switch {
	case q.ranked():
		b = binary.AppendVarint(b, int64(q.K))
		b = appendF64s(b, q.Weights)
	case q.Kind == KindNearest:
		b = binary.AppendVarint(b, int64(q.K))
		b = binary.AppendVarint(b, int64(q.Cost))
	case q.Kind == KindWithin:
		b = appendF64s(b, q.Budget)
	}
	if q.Period() {
		b = appendF64(b, q.From)
		b = appendF64(b, q.To)
	}
	return endFrame(b, 0), nil
}

// DecodeRequest parses one request frame payload (header included, length
// prefix already stripped).
func DecodeRequest(payload []byte) (*Request, error) {
	kind, body, err := checkHeader(payload)
	if err != nil {
		return nil, err
	}
	path, ok := reqKinds[kind]
	if !ok {
		return nil, fmt.Errorf("wire: frame kind 0x%02x is not a request", kind)
	}
	q := &Request{Kind: path}
	r := &reader{buf: body}
	q.TimeoutMS = int(r.varint("timeout"))
	switch eng := r.bytes("engine", 1); {
	case r.err != nil:
	case eng[0] == 0:
		q.Engine = ""
	case eng[0] == 1:
		q.Engine = "lsa"
	default:
		return nil, fmt.Errorf("wire: unknown engine byte %d", eng[0])
	}
	if q.Scatter() {
		if n := r.count("edges", 1); n > 0 {
			q.Edges = make([]int, n)
			for i := range q.Edges {
				q.Edges[i] = int(r.varint("edges"))
			}
		}
		q.Ts = r.f64s("ts")
		q.Cost = int(r.varint("cost"))
	} else {
		q.Edge = int(r.varint("edge"))
		q.T = r.f64("t")
	}
	switch {
	case q.ranked():
		q.K = int(r.varint("k"))
		q.Weights = r.f64s("weights")
	case q.Kind == KindNearest:
		q.K = int(r.varint("k"))
		q.Cost = int(r.varint("cost"))
	case q.Kind == KindWithin:
		q.Budget = r.f64s("budget")
	}
	if q.Period() {
		q.From = r.f64("from")
		q.To = r.f64("to")
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after request", len(r.buf))
	}
	return q, nil
}

// appendFacilities writes one result set: count, then per facility the
// uvarint id, d float32 cost components and the float32 score.
func appendFacilities(dst []byte, d int, fs []Facility) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = binary.AppendUvarint(dst, uint64(f.ID))
		for i := 0; i < d; i++ {
			if i < len(f.Costs) {
				dst = appendF32(dst, f.Costs[i])
			} else {
				dst = appendF32(dst, math.NaN())
			}
		}
		dst = appendF32(dst, f.Score)
	}
	return dst
}

func (r *reader) facilities(d int) []Facility {
	n := r.count("facilities", 1+4*d+4)
	if r.err != nil || n == 0 {
		return nil
	}
	if cap(r.costs)-len(r.costs) < n*d {
		// One cost array per frame, sized for every facility the rest of the
		// frame can hold; each facility's Costs is a full slice of it.
		r.costs = make([]float64, 0, len(r.buf)/(1+4*d+4)*d)
	}
	out := make([]Facility, n)
	for i := range out {
		out[i].ID = graph.FacilityID(r.uvarint("facility id"))
		start := len(r.costs)
		for j := 0; j < d; j++ {
			r.costs = append(r.costs, r.f32("facility costs"))
		}
		out[i].Costs = r.costs[start:len(r.costs):len(r.costs)]
		out[i].Score = r.f32("facility score")
	}
	return out
}

func appendStats(dst []byte, s core.Stats) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Pops))
	dst = binary.AppendUvarint(dst, uint64(s.GrowingPops))
	dst = binary.AppendUvarint(dst, uint64(s.NodeExpansions))
	dst = binary.AppendUvarint(dst, uint64(s.PrunedNodes))
	return binary.AppendUvarint(dst, uint64(s.Tracked))
}

func (r *reader) stats() core.Stats {
	return core.Stats{
		Pops:           int(r.uvarint("stats")),
		GrowingPops:    int(r.uvarint("stats")),
		NodeExpansions: int(r.uvarint("stats")),
		PrunedNodes:    int(r.uvarint("stats")),
		Tracked:        int(r.uvarint("stats")),
	}
}

// queryKindByte maps a response envelope's Query label to its kind byte.
func queryKindByte(query string) (byte, error) {
	b, ok := queryKinds[query]
	if !ok {
		return 0, fmt.Errorf("wire: no kind byte for query %q", query)
	}
	return b, nil
}

// queryName reads a response frame's kind byte back into the Query label.
func (r *reader) queryName() string {
	rk := r.bytes("result kind", 1)
	if r.err != nil {
		return ""
	}
	name, ok := queryNames[rk[0]]
	if !ok {
		r.err = fmt.Errorf("wire: unknown request kind byte 0x%02x", rk[0])
	}
	return name
}

// dims reads the cost-vector width written once per response frame.
func (r *reader) dims() int {
	d := int(r.uvarint("dims"))
	if r.err == nil && d > len(r.buf) {
		r.fail("dims")
	}
	return d
}

// dims returns the widest cost vector in fs — the d written once per frame.
func dims(fs []Facility) int {
	d := 0
	for _, f := range fs {
		if len(f.Costs) > d {
			d = len(f.Costs)
		}
	}
	return d
}

// EncodeResult renders res as a complete binary response frame.
func EncodeResult(res *Result) ([]byte, error) { return appendResultFrame(nil, res) }

// The frame appenders grow dst once, to a bound on the frame: a varint takes
// at most 10 bytes, so a facility at most 9+4d, a stats block 50.
func appendResultFrame(dst []byte, res *Result) ([]byte, error) {
	kind, err := queryKindByte(res.Query)
	if err != nil {
		return dst, err
	}
	d, start := dims(res.Facilities), len(dst)
	dst = grow(dst, 114+len(res.Facilities)*(9+4*d))
	b := append(beginFrame(dst, frameResult), kind)
	b = binary.AppendUvarint(b, uint64(d))
	b = appendFacilities(b, d, res.Facilities)
	b = appendStats(b, res.Stats)
	b = appendF32(b, res.LatencyMS)
	return endFrame(b, start), nil
}

// EncodePeriodResult renders pr as a complete binary response frame.
// Interval bounds stay float64 so gateway seam fusion compares them exactly.
func EncodePeriodResult(pr *PeriodResult) ([]byte, error) { return appendPeriodFrame(nil, pr) }

func appendPeriodFrame(dst []byte, pr *PeriodResult) ([]byte, error) {
	kind, err := queryKindByte(pr.Query)
	if err != nil {
		return dst, err
	}
	d, n, start := 0, 0, len(dst)
	for _, iv := range pr.Intervals {
		d, n = max(d, dims(iv.Facilities)), n+len(iv.Facilities)
	}
	dst = grow(dst, 38+76*len(pr.Intervals)+n*(9+4*d))
	b := append(beginFrame(dst, framePeriodResult), kind)
	b = binary.AppendUvarint(b, uint64(d))
	b = binary.AppendUvarint(b, uint64(len(pr.Intervals)))
	for _, iv := range pr.Intervals {
		b = appendF64(b, iv.From)
		b = appendF64(b, iv.To)
		b = appendFacilities(b, d, iv.Facilities)
		b = appendStats(b, iv.Stats)
	}
	b = appendF32(b, pr.LatencyMS)
	return endFrame(b, start), nil
}

// EncodeError renders an HTTP-status-plus-message error as a binary frame.
func EncodeError(status int, msg string) []byte { return appendErrorFrame(nil, status, msg) }

func appendErrorFrame(dst []byte, status int, msg string) []byte {
	start := len(dst)
	b := beginFrame(grow(dst, 32+len(msg)), frameError)
	b = binary.AppendUvarint(b, uint64(status))
	b = binary.AppendUvarint(b, uint64(len(msg)))
	b = append(b, msg...)
	return endFrame(b, start)
}

// DecodeResponse parses one response frame payload (header included, length
// prefix already stripped) into its envelope.
func DecodeResponse(payload []byte) (*Response, error) {
	kind, body, err := checkHeader(payload)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: body}
	switch kind {
	case frameResult:
		res := &Result{Query: r.queryName()}
		res.Facilities = r.facilities(r.dims())
		res.Count = len(res.Facilities)
		res.Stats = r.stats()
		res.LatencyMS = r.f32("latency")
		if r.err != nil {
			return nil, r.err
		}
		return &Response{Result: res}, nil
	case framePeriodResult:
		pr := &PeriodResult{Query: r.queryName()}
		d := r.dims()
		n := r.count("intervals", 17)
		for i := 0; i < n && r.err == nil; i++ {
			iv := Interval{From: r.f64("interval from"), To: r.f64("interval to")}
			iv.Facilities = r.facilities(d)
			iv.Count = len(iv.Facilities)
			iv.Stats = r.stats()
			pr.Intervals = append(pr.Intervals, iv)
		}
		pr.Count = len(pr.Intervals)
		pr.LatencyMS = r.f32("latency")
		if r.err != nil {
			return nil, r.err
		}
		return &Response{Period: pr}, nil
	case frameError:
		status := int(r.uvarint("error status"))
		n := r.count("error message", 1)
		msg := r.bytes("error message", n)
		if r.err != nil {
			return nil, r.err
		}
		return &Response{Status: status, Message: string(msg)}, nil
	}
	return nil, fmt.Errorf("wire: frame kind 0x%02x is not a response", kind)
}
