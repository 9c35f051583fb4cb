// Package server is the wire front-end of the peeling runtime: a
// length-prefixed binary protocol over TCP exposing the Runtime's
// reconciliation, decode, build, and static-table serving paths,
// engineered for failure first. Every request carries a deadline that
// becomes the handler's context; admission rides the Runtime's MaxJobs
// bound but never blocks the accept loop — over-budget requests are
// shed with a typed OVERLOADED reply carrying a retry-after hint;
// per-connection panics kill only their connection; handler panics are
// answered with a typed INTERNAL reply; oversized or malformed frames
// are rejected before allocation. Shutdown drains gracefully: the
// listener closes, every connection receives a GOAWAY frame, in-flight
// requests finish through Runtime.Shutdown, and only then do the
// connections close.
//
// # Wire format
//
// A connection opens with an 8-byte preface "PEELSRV1". Every
// subsequent message, both directions, is one frame:
//
//	length  uint32  // of the remainder: 1 + 8 + len(payload)
//	type    uint8   // request op or response type
//	reqID   uint64  // nonzero, chosen by the client; echoed in replies
//	payload []byte
//
// length is bounded by the receiver's MaxFrame before any payload
// allocation, mirroring iblt.UnmarshalBinary's adversarial-geometry
// bounds. Request payloads begin with a uint32 relative deadline in
// milliseconds (0 = none); sketch payloads reuse the hardened iblt wire
// format verbatim. All integers are little-endian.
//
// Every accepted request — one whose frame was fully read with a known
// op type — receives exactly one reply: a RESULT frame or a typed ERROR
// frame. Shed and shutdown rejections are replies too, never silent
// drops.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/iblt"
)

// Preface is the 8-byte connection preface a client sends before its
// first frame; the server rejects connections that open with anything
// else before reading any frame.
const Preface = "PEELSRV1"

// Frame types. Requests are 0x01..0x7f, responses have the top bit set.
const (
	OpReconcile byte = 0x01 // two key sets -> difference sides + retry metadata
	OpDecode    byte = 0x02 // iblt wire sketch -> recovered difference
	OpBuildMPHF byte = 0x03 // key set -> flat MPHF image
	OpLookup    byte = 0x04 // keys -> values from the server's StaticTable
	OpSwapImage byte = 0x05 // flat image -> installed generation (not idempotent)
	OpEstimate  byte = 0x06 // two strata estimators -> difference estimate

	TypeResult byte = 0x80 // success reply; payload is op-specific
	TypeError  byte = 0x81 // typed failure reply
	TypeGoAway byte = 0x82 // server is draining; reqID 0, no payload
)

// opValid reports whether t is a known request op.
func opValid(t byte) bool { return t >= OpReconcile && t <= OpEstimate }

// opIdempotent reports whether retrying op after an ambiguous failure
// (connection loss mid-call) is safe. Everything except SwapImage is a
// pure function of its request; SwapImage advances the table generation,
// so a client must not blindly re-send it when it cannot know whether
// the first send was applied. (Retry after a shed OVERLOADED reply is
// always safe, for every op: a shed request never started.)
func opIdempotent(t byte) bool { return t != OpSwapImage }

// frameOverhead is the fixed cost of a frame beyond its payload: the
// type byte and the request ID (the uint32 length prefix is not counted
// by the length field itself).
const frameOverhead = 1 + 8

// DefaultMaxFrame bounds how large a frame either side will read or
// build: 64 MiB covers multi-million-key reconciliations and MPHF
// images while keeping a hostile length prefix from driving a huge
// allocation.
const DefaultMaxFrame = 64 << 20

// Code classifies a typed error reply.
type Code uint8

const (
	// CodeBadRequest: the request was malformed (unparseable payload,
	// corrupt sketch or image, incompatible estimator seeds). Not
	// retryable — the same bytes will fail the same way.
	CodeBadRequest Code = 1
	// CodeOverloaded: the request was shed at admission — it never ran,
	// so retrying after the carried retry-after hint is always safe.
	CodeOverloaded Code = 2
	// CodeDeadlineExceeded: the request's deadline expired before the
	// handler finished; the work was abandoned at a round barrier.
	CodeDeadlineExceeded Code = 3
	// CodeCanceled: the handler's context was canceled for a reason
	// other than its deadline (e.g. the connection's context died).
	CodeCanceled Code = 4
	// CodeShuttingDown: the server is draining; this connection has or
	// will receive GOAWAY. Dial elsewhere.
	CodeShuttingDown Code = 5
	// CodeInternal: the handler panicked (or hit an unclassified
	// internal failure). The panic was isolated — the server, the
	// connection, and every other request survive.
	CodeInternal Code = 6
	// CodeUnavailable: the request needs state the server does not have
	// (e.g. a Lookup before any generation was installed).
	CodeUnavailable Code = 7
	// CodeFailed: the operation ran and failed on its own terms — a
	// build whose every attempt left a non-empty 2-core, a
	// reconciliation still incomplete at the policy's headroom ceiling.
	CodeFailed Code = 8
)

func (c Code) String() string {
	switch c {
	case CodeBadRequest:
		return "BAD_REQUEST"
	case CodeOverloaded:
		return "OVERLOADED"
	case CodeDeadlineExceeded:
		return "DEADLINE_EXCEEDED"
	case CodeCanceled:
		return "CANCELED"
	case CodeShuttingDown:
		return "SHUTTING_DOWN"
	case CodeInternal:
		return "INTERNAL"
	case CodeUnavailable:
		return "UNAVAILABLE"
	case CodeFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("CODE(%d)", uint8(c))
	}
}

// Error is a typed error reply as seen by the client: the code, the
// server's message, and — for CodeOverloaded — the server's retry-after
// hint. It implements errors.Is against the exported sentinels, so
// `errors.Is(err, server.ErrOverloaded)` works across the wire.
type Error struct {
	Code       Code
	Msg        string
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("server: %s", e.Code)
	}
	return fmt.Sprintf("server: %s: %s", e.Code, e.Msg)
}

// Is matches the sentinel for e's code, so wrapped typed replies
// cooperate with errors.Is.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Code == CodeOverloaded
	case ErrShuttingDown:
		return e.Code == CodeShuttingDown
	case ErrBadRequest:
		return e.Code == CodeBadRequest
	}
	return false
}

// Sentinels for the retry-relevant codes; match with errors.Is.
var (
	// ErrOverloaded: the server shed the request; retry after the hint.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrShuttingDown: the server is draining; dial another instance.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrBadRequest: the request was malformed; do not retry.
	ErrBadRequest = errors.New("server: bad request")
	// ErrProtocol is returned for frames that violate the wire protocol
	// (bad preface, oversized or short frames, unknown types); the
	// connection is closed after it.
	ErrProtocol = errors.New("server: protocol error")
)

// readFrame reads one frame from r, bounding the length prefix by
// maxFrame before allocating the payload. Protocol violations are
// reported as ErrProtocol wrappers; io errors pass through.
func readFrame(r io.Reader, maxFrame int) (typ byte, id uint64, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	length := int(binary.LittleEndian.Uint32(hdr[:]))
	if length < frameOverhead {
		return 0, 0, nil, fmt.Errorf("%w: frame length %d below header size", ErrProtocol, length)
	}
	if length > maxFrame {
		return 0, 0, nil, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrProtocol, length, maxFrame)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return body[0], binary.LittleEndian.Uint64(body[1:9]), body[9:], nil
}

// appendFrameHeader appends the header of a frame whose payload is n
// bytes long: its length prefix, type and request id.
func appendFrameHeader(buf []byte, typ byte, id uint64, n int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameOverhead+n))
	buf = append(buf, typ)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// wireReader is an error-sticky bounds-checked cursor over a payload:
// every read validates remaining length first, so hostile payloads can
// neither panic the parser nor drive allocations beyond the (already
// frame-capped) payload they paid for.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrProtocol, what, r.off)
	}
}

func (r *wireReader) uint8v(what string) uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) uint32v(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) uint64v(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// keys reads a uint32-counted array of uint64 keys. The count is
// bounded by the remaining payload before the slice is allocated.
func (r *wireReader) keys(what string) []uint64 {
	n := int(r.uint32v(what))
	if r.err != nil {
		return nil
	}
	if n < 0 || n > (len(r.b)-r.off)/8 {
		r.fail(what)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return out
}

// bytesv reads a uint32-length-prefixed byte blob, aliasing the payload
// (no copy; the payload buffer belongs to the frame).
func (r *wireReader) bytesv(what string) []byte {
	n := int(r.uint32v(what))
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail(what)
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// str reads a uint16-length-prefixed string.
func (r *wireReader) str(what string) string {
	if r.err != nil {
		return ""
	}
	if r.off+2 > len(r.b) {
		r.fail(what)
		return ""
	}
	n := int(binary.LittleEndian.Uint16(r.b[r.off:]))
	r.off += 2
	if n > len(r.b)-r.off {
		r.fail(what)
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// done checks that the payload was consumed exactly; trailing bytes are
// a protocol violation (they would otherwise smuggle unvalidated data).
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(r.b)-r.off)
	}
	return nil
}

func appendKeys(buf []byte, keys []uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
	}
	return buf
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// deadlineMs converts a context deadline distance to the wire's uint32
// millisecond form: 0 means "no deadline", expired deadlines clamp to 1
// (the receiver should fail fast, not treat it as unbounded).
func deadlineMs(d time.Duration, hasDeadline bool) uint32 {
	if !hasDeadline {
		return 0
	}
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms < 1 {
		return 1
	}
	if ms > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ms)
}

// --- request payloads ---

type reconcileReq struct {
	deadline uint32
	seed     uint64
	headroom float64
	local    []uint64
	remote   []uint64
}

func (q *reconcileReq) encode() []byte {
	buf := make([]byte, 0, 4+8+8+4+8*len(q.local)+4+8*len(q.remote))
	buf = binary.LittleEndian.AppendUint32(buf, q.deadline)
	buf = binary.LittleEndian.AppendUint64(buf, q.seed)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(q.headroom))
	buf = appendKeys(buf, q.local)
	return appendKeys(buf, q.remote)
}

func parseReconcileReq(p []byte) (*reconcileReq, error) {
	r := &wireReader{b: p}
	q := &reconcileReq{
		deadline: r.uint32v("deadline"),
		seed:     r.uint64v("seed"),
		headroom: math.Float64frombits(r.uint64v("headroom")),
		local:    r.keys("local keys"),
		remote:   r.keys("remote keys"),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	// The upper bound matters as much as the lower: headroom multiplies
	// the server-side difference-table allocation, so an uncapped value
	// in a tiny frame would be a remotely triggered OOM. ReconcileCtx
	// clamps again as defense in depth; the wire rejects outright.
	if math.IsNaN(q.headroom) || q.headroom < 0 || q.headroom > iblt.MaxHeadroom {
		return nil, fmt.Errorf("%w: headroom %v outside [0, %v]", ErrProtocol, q.headroom, float64(iblt.MaxHeadroom))
	}
	return q, nil
}

type decodeReq struct {
	deadline uint32
	sketch   []byte // iblt wire format, validated by the hardened parser
}

func (q *decodeReq) encode() []byte {
	buf := make([]byte, 0, 4+4+len(q.sketch))
	buf = binary.LittleEndian.AppendUint32(buf, q.deadline)
	return appendBytes(buf, q.sketch)
}

func parseDecodeReq(p []byte) (*decodeReq, error) {
	r := &wireReader{b: p}
	q := &decodeReq{deadline: r.uint32v("deadline"), sketch: r.bytesv("sketch")}
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}

type buildReq struct {
	deadline uint32
	seed     uint64
	keys     []uint64
}

func (q *buildReq) encode() []byte {
	buf := make([]byte, 0, 4+8+4+8*len(q.keys))
	buf = binary.LittleEndian.AppendUint32(buf, q.deadline)
	buf = binary.LittleEndian.AppendUint64(buf, q.seed)
	return appendKeys(buf, q.keys)
}

func parseBuildReq(p []byte) (*buildReq, error) {
	r := &wireReader{b: p}
	q := &buildReq{deadline: r.uint32v("deadline"), seed: r.uint64v("seed"), keys: r.keys("keys")}
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}

type lookupReq struct {
	deadline uint32
	keys     []uint64
}

func (q *lookupReq) encode() []byte {
	buf := make([]byte, 0, 4+4+8*len(q.keys))
	buf = binary.LittleEndian.AppendUint32(buf, q.deadline)
	return appendKeys(buf, q.keys)
}

func parseLookupReq(p []byte) (*lookupReq, error) {
	r := &wireReader{b: p}
	q := &lookupReq{deadline: r.uint32v("deadline"), keys: r.keys("keys")}
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}

type swapReq struct {
	deadline uint32
	image    []byte // flat layout image, validated before install
}

func (q *swapReq) encode() []byte {
	buf := make([]byte, 0, 4+4+len(q.image))
	buf = binary.LittleEndian.AppendUint32(buf, q.deadline)
	return appendBytes(buf, q.image)
}

func parseSwapReq(p []byte) (*swapReq, error) {
	r := &wireReader{b: p}
	q := &swapReq{deadline: r.uint32v("deadline"), image: r.bytesv("image")}
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}

type estimateReq struct {
	deadline uint32
	local    []byte // marshaled StrataEstimator
	remote   []byte
}

func (q *estimateReq) encode() []byte {
	buf := make([]byte, 0, 4+4+len(q.local)+4+len(q.remote))
	buf = binary.LittleEndian.AppendUint32(buf, q.deadline)
	buf = appendBytes(buf, q.local)
	return appendBytes(buf, q.remote)
}

func parseEstimateReq(p []byte) (*estimateReq, error) {
	r := &wireReader{b: p}
	q := &estimateReq{
		deadline: r.uint32v("deadline"),
		local:    r.bytesv("local estimator"),
		remote:   r.bytesv("remote estimator"),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}

// --- reply payloads ---

// ReconcileResult is the Reconcile reply: the two difference sides plus
// the retry metadata — attempts and accumulated wire bytes mirror the
// server's ReconcileMeta, so headroom escalation is visible to clients.
type ReconcileResult struct {
	OnlyLocal  []uint64
	OnlyRemote []uint64
	Attempts   int
	WireBytes  int
	Headroom   float64 // headroom of the final (successful) attempt
}

func (res *ReconcileResult) encode() []byte {
	buf := make([]byte, 0, 4+8+8+4+8*len(res.OnlyLocal)+4+8*len(res.OnlyRemote))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(res.Attempts))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.WireBytes))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Headroom))
	buf = appendKeys(buf, res.OnlyLocal)
	return appendKeys(buf, res.OnlyRemote)
}

func parseReconcileResult(p []byte) (*ReconcileResult, error) {
	r := &wireReader{b: p}
	res := &ReconcileResult{
		Attempts:   int(r.uint32v("attempts")),
		WireBytes:  int(r.uint64v("wire bytes")),
		Headroom:   math.Float64frombits(r.uint64v("headroom")),
		OnlyLocal:  r.keys("only-local"),
		OnlyRemote: r.keys("only-remote"),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeResult is the Decode reply: the recovered difference and
// whether the peel completed (an incomplete decode still returns the
// partial recovery — the client decides whether partial is useful).
type DecodeResult struct {
	Added    []uint64
	Removed  []uint64
	Complete bool
}

func (res *DecodeResult) encode() []byte {
	buf := make([]byte, 0, 1+4+8*len(res.Added)+4+8*len(res.Removed))
	if res.Complete {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendKeys(buf, res.Added)
	return appendKeys(buf, res.Removed)
}

func parseDecodeResult(p []byte) (*DecodeResult, error) {
	r := &wireReader{b: p}
	res := &DecodeResult{
		Complete: r.uint8v("complete") != 0,
		Added:    r.keys("added"),
		Removed:  r.keys("removed"),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return res, nil
}

// LookupResult is the Lookup reply: values[i] answers keys[i], all
// drawn from one consistent generation of the server's static table.
type LookupResult struct {
	Generation uint64
	Values     []uint64
}

func (res *LookupResult) encode() []byte {
	buf := make([]byte, 0, 8+4+8*len(res.Values))
	buf = binary.LittleEndian.AppendUint64(buf, res.Generation)
	return appendKeys(buf, res.Values)
}

func parseLookupResult(p []byte) (*LookupResult, error) {
	r := &wireReader{b: p}
	res := &LookupResult{Generation: r.uint64v("generation"), Values: r.keys("values")}
	if err := r.done(); err != nil {
		return nil, err
	}
	return res, nil
}

func encodeErrorPayload(code Code, retryAfter time.Duration, msg string) []byte {
	buf := make([]byte, 0, 1+4+2+len(msg))
	buf = append(buf, byte(code))
	buf = binary.LittleEndian.AppendUint32(buf, deadlineMs(retryAfter, retryAfter > 0))
	return appendString(buf, msg)
}

func parseErrorPayload(p []byte) (*Error, error) {
	r := &wireReader{b: p}
	e := &Error{Code: Code(r.uint8v("code"))}
	e.RetryAfter = time.Duration(r.uint32v("retry-after")) * time.Millisecond
	e.Msg = r.str("message")
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}
