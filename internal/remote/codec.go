package remote

// Hand-rolled binary codec — the wire protocol's frames, from the first byte
// of a connection. The format is shaped around what actually crosses the
// wire: near-monotonic versions, heavily repeated keys, and small values.
//
// Frame layout (both directions):
//
//	frame   := tag(1 byte) length(uvarint) payload(length bytes)
//
// Tags are listed in protocol.go; length covers the payload only. The
// tag-only heartbeat frame carries length 0. All integers are unsigned LEB128
// (uvarint) unless marked zigzag (varint); strings are uvarint length + raw
// bytes.
//
// Payloads:
//
//	hello      := version(uvarint) heartbeatMillis(zigzag)
//	shutdown   := reason(string)
//	watch      := id(uvarint) low(string) high(string) from(uvarint)
//	cancel     := id(uvarint)
//	snapshot   := id(uvarint) low(string) high(string)
//	progress   := id(uvarint) low(string) high(string) version(uvarint)
//	resync     := id(uvarint) low(string) high(string) minVersion(uvarint)
//	              reason(string)
//	overloaded := id(uvarint) retryAfterMillis(zigzag) reason(string)
//	eventBatch := id(uvarint) count(uvarint) event*count
//	eventRepeat := id(uvarint)
//	  the connection's previous eventBatch, delivered again to watch id. A
//	  repeat before any batch on the connection is a decode error.
//	snapChunk  := id(uvarint) flags(1 byte) [bound(uvarint)] at(uvarint)
//	              err(string) count(uvarint) entry*count
//	  flags bit 0: last chunk of the response
//	        bit 1: bound present — on a response's first chunk, the server's
//	               upper bound on the response's total entry count. A
//	               capacity hint: the decoder clamps it and nothing but an
//	               allocation size ever depends on it.
//
//	event := flags(1 byte) key vdelta(zigzag) [valueLen(uvarint) value]
//	         [trace(uvarint)]
//	  flags bit 0-1: core.Op (1 put, 2 delete)
//	        bit 2:   key is a literal (else a dictionary reference)
//	        bit 3:   trace field present (absent = untraced, the common case)
//	        bit 4:   value present (absent = nil, e.g. deletes)
//	  key   := literal: uvarint len + bytes   ref: uvarint dictionary index
//	  vdelta is the version's zigzag delta from the previous event in the
//	  frame (first event: from 0). Batches are near-monotonic, so steady
//	  state is one byte per version.
//
//	entry := key(string) value(bytes1) vdelta(zigzag from previous entry)
//	  bytes1 is nil-preserving: 0 = nil, n+1 = n raw bytes follow.
//
// Key dictionary: each direction of a connection carries an append-only key
// dictionary, built identically by encoder and decoder from the literal keys
// in event frames, in stream order. The encoder sends a key it has seen
// before as a dictionary index; hot keys therefore cost one or two bytes
// after their first appearance, and the decoder hands out the same interned
// string without allocating. Both sides stop adding at keyDictCap by the same
// deterministic rule, so the structures never diverge. Snapshot entries do
// not touch the dictionary (their keys are mostly unique).
//
// Allocation discipline: the encoder builds each payload in one reusable
// scratch buffer and issues exactly two buffered writes per frame — zero
// allocations at steady state. The decoder reads each payload into a
// reusable scratch buffer; decoded event slices reuse the caller's backing
// array, keys come from the dictionary, and value bytes are copied out into
// one fresh block per frame (values are retainable by consumers, so they
// must not alias the scratch buffer). Decode therefore costs one allocation
// per frame carrying values, independent of event count; a repeat costs
// nothing on either end, since it re-addresses the batch last decoded.
// Snapshot entries are decoded straight onto the caller's accumulator: one
// value block sized to the chunk's value bytes and one string holding the
// chunk's keys (each key a substring of it), so a chunk costs two
// allocations however many entries it carries.
//
// Hardening: the decoder trusts nothing. Frame lengths are capped at
// maxFrameLen, every inner length is validated against the remaining
// payload, event/entry counts are validated before any allocation sized by
// them, dictionary references are bounds-checked, and trailing payload bytes
// are rejected. Every violation surfaces as a plain error the read loops
// wrap into the existing typed ProtocolError and count in
// remote_{server,client}_decode_errors_total. See FuzzDecodeFrame.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/trace"
)

const (
	// maxFrameLen bounds one binary frame's payload. Nothing legitimate comes
	// close (snapshot chunks are bounded at 256KiB, event batches by the
	// connection outbox), so anything larger is a corrupt or hostile length
	// prefix and must fail fast instead of sizing an allocation.
	maxFrameLen = 64 << 20
	// keyDictCap bounds each direction's key dictionary. Beyond it keys are
	// sent literally; encoder and decoder stop growing at the same count so
	// their indices stay aligned.
	keyDictCap = 1 << 16
	// maxSnapReserve clamps the entry-count bound a snapshot response
	// announces: the most entries (48 MiB of them) a client will reserve room
	// for on the server's word. A larger snapshot still arrives whole; its
	// accumulator grows by append past this point.
	maxSnapReserve = 1 << 20
)

// Snapshot chunk flag bits (see the format comment above).
const (
	snapLast     = 1 << 0
	snapHasBound = 1 << 1
)

// Event flag bits (see the format comment above).
const (
	evOpMask     = 0b11
	evKeyLiteral = 1 << 2
	evHasTrace   = 1 << 3
	evHasValue   = 1 << 4
)

// Binary decode errors. These are protocol violations (never ordinary
// connection loss), so the read loops count them as decode errors and kill
// the connection with a ProtocolError.
var (
	errFrameTooBig  = errors.New("frame length exceeds limit")
	errBadVarint    = errors.New("malformed varint")
	errShortPayload = errors.New("truncated payload")
	errTrailing     = errors.New("trailing bytes after payload")
	errBadKeyRef    = errors.New("key dictionary reference out of range")
	errBadCount     = errors.New("element count exceeds payload")
	errNoBatch      = errors.New("event repeat before any event batch")
)

// binEncoder is the frame encoder: one scratch buffer, one key dictionary, two
// buffered writes per frame. Each frame method appends its payload to a local
// slice over the scratch buffer, and frame stores it back once, so no varint
// stores into the heap. Not safe for concurrent use — each connection
// direction owns exactly one (the server's write loop, the client's encMu).
type binEncoder struct {
	w    *bufio.Writer
	buf  []byte
	hdr  []byte // frame-header scratch (persistent: a local would escape to the heap via the Write call)
	keys map[keyspace.Key]uint32
}

func newBinEncoder(w *bufio.Writer) *binEncoder {
	return &binEncoder{w: w, keys: make(map[keyspace.Key]uint32)}
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBytes1 appends the nil-preserving byte-slice encoding: 0 = nil, n+1 =
// n bytes.
func appendBytes1(b, v []byte) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	return append(b, v...)
}

// frame writes payload b as one tagged frame and keeps b's array as the
// scratch buffer for the next frame.
func (e *binEncoder) frame(tag uint8, b []byte) error {
	e.buf = b
	e.hdr = append(e.hdr[:0], tag)
	e.hdr = binary.AppendUvarint(e.hdr, uint64(len(b)))
	if _, err := e.w.Write(e.hdr); err != nil {
		return err
	}
	if len(b) == 0 {
		return nil
	}
	_, err := e.w.Write(b)
	return err
}

func (e *binEncoder) hello(h *helloMsg) error {
	b := binary.AppendUvarint(e.buf[:0], uint64(h.Version))
	b = binary.AppendVarint(b, h.HeartbeatMillis)
	return e.frame(tagHello, b)
}

func (e *binEncoder) heartbeat() error {
	return e.frame(tagHeartbeat, e.buf[:0])
}

func (e *binEncoder) shutdown(m *shutdownMsg) error {
	return e.frame(tagShutdown, appendStr(e.buf[:0], m.Reason))
}

func (e *binEncoder) eventBatch(id uint64, evs []core.ChangeEvent) error {
	b := binary.AppendUvarint(e.buf[:0], id)
	b = binary.AppendUvarint(b, uint64(len(evs)))
	prev := core.NoVersion
	for i := range evs {
		ev := &evs[i]
		flags := uint8(ev.Mut.Op) & evOpMask
		idx, known := e.keys[ev.Key]
		if !known {
			flags |= evKeyLiteral
		}
		if ev.Trace != 0 {
			flags |= evHasTrace
		}
		if ev.Mut.Value != nil {
			flags |= evHasValue
		}
		b = append(b, flags)
		if known {
			b = binary.AppendUvarint(b, uint64(idx))
		} else {
			b = appendStr(b, string(ev.Key))
			if len(e.keys) < keyDictCap {
				e.keys[ev.Key] = uint32(len(e.keys))
			}
		}
		b = binary.AppendVarint(b, int64(ev.Version)-int64(prev))
		prev = ev.Version
		if ev.Mut.Value != nil {
			b = binary.AppendUvarint(b, uint64(len(ev.Mut.Value)))
			b = append(b, ev.Mut.Value...)
		}
		if ev.Trace != 0 {
			b = binary.AppendUvarint(b, uint64(ev.Trace))
		}
	}
	return e.frame(tagEventBatch, b)
}

// eventRepeat sends the previous event batch again, to watch id.
func (e *binEncoder) eventRepeat(id uint64) error {
	return e.frame(tagEventRepeat, binary.AppendUvarint(e.buf[:0], id))
}

func (e *binEncoder) progress(id uint64, p core.ProgressEvent) error {
	b := binary.AppendUvarint(e.buf[:0], id)
	b = appendStr(b, string(p.Range.Low))
	b = appendStr(b, string(p.Range.High))
	b = binary.AppendUvarint(b, uint64(p.Version))
	return e.frame(tagProgress, b)
}

func (e *binEncoder) resync(id uint64, r core.ResyncEvent) error {
	b := binary.AppendUvarint(e.buf[:0], id)
	b = appendStr(b, string(r.Range.Low))
	b = appendStr(b, string(r.Range.High))
	b = binary.AppendUvarint(b, uint64(r.MinVersion))
	b = appendStr(b, r.Reason)
	return e.frame(tagResync, b)
}

func (e *binEncoder) snapChunk(ch *snapChunk) error {
	b := binary.AppendUvarint(e.buf[:0], ch.ID)
	var flags byte
	if ch.Last {
		flags |= snapLast
	}
	if ch.Bound > 0 {
		flags |= snapHasBound
	}
	b = append(b, flags)
	if ch.Bound > 0 {
		b = binary.AppendUvarint(b, uint64(ch.Bound))
	}
	b = binary.AppendUvarint(b, uint64(ch.At))
	b = appendStr(b, ch.Err)
	b = binary.AppendUvarint(b, uint64(len(ch.Entries)))
	prev := core.NoVersion
	for i := range ch.Entries {
		en := &ch.Entries[i]
		b = appendStr(b, string(en.Key))
		b = appendBytes1(b, en.Value)
		b = binary.AppendVarint(b, int64(en.Version)-int64(prev))
		prev = en.Version
	}
	return e.frame(tagSnapChunk, b)
}

func (e *binEncoder) overloaded(m *overloadedMsg) error {
	b := binary.AppendUvarint(e.buf[:0], m.ID)
	b = binary.AppendVarint(b, m.RetryAfterMillis)
	b = appendStr(b, m.Reason)
	return e.frame(tagOverloaded, b)
}

func (e *binEncoder) watch(w *watchReq) error {
	b := binary.AppendUvarint(e.buf[:0], w.ID)
	b = appendStr(b, string(w.Low))
	b = appendStr(b, string(w.High))
	b = binary.AppendUvarint(b, uint64(w.From))
	return e.frame(tagWatch, b)
}

func (e *binEncoder) cancelWatch(cr *cancelReq) error {
	return e.frame(tagCancel, binary.AppendUvarint(e.buf[:0], cr.ID))
}

func (e *binEncoder) snapshot(sr *snapshotReq) error {
	b := binary.AppendUvarint(e.buf[:0], sr.ID)
	b = appendStr(b, string(sr.Low))
	b = appendStr(b, string(sr.High))
	return e.frame(tagSnapshot, b)
}

// binDecoder is the frame decoder: readTag pulls one whole frame (header +
// payload) into a reusable scratch buffer; the decode methods parse it with
// every length, count and reference validated. Not safe for concurrent use.
type binDecoder struct {
	r        *bufio.Reader
	buf      []byte         // frame payload scratch, reused across frames
	cur      cursor         // the payload readTag read; decodeSnapChunk advances it to the entries
	keys     []keyspace.Key // receive-side key dictionary, mirrors the encoder's
	snapKeys []byte         // one snapshot chunk's key bytes, gathered; reused across chunks
	batched  bool           // an event batch was decoded, so a repeat has a run to repeat
}

func newBinDecoder(r *bufio.Reader) *binDecoder {
	return &binDecoder{r: r}
}

func (d *binDecoder) readTag() (uint8, error) {
	tag, err := d.r.ReadByte()
	if err != nil {
		return 0, err
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, err
	}
	if n > maxFrameLen {
		return 0, fmt.Errorf("%w: %d bytes", errFrameTooBig, n)
	}
	if uint64(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return 0, err
	}
	d.cur = d.buf
	return tag, nil
}

// cursor is the unparsed remainder of a payload. A decode method copies
// binDecoder.cur into a local cursor, and each read returns the cursor
// advanced past what it read: the cursor stays on the stack, so no varint
// stores into the heap.
type cursor []byte

func (c cursor) u() (uint64, cursor, error) {
	v, n := binary.Uvarint(c)
	if n <= 0 {
		return 0, c, errBadVarint
	}
	return v, c[n:], nil
}

func (c cursor) z() (int64, cursor, error) {
	v, n := binary.Varint(c)
	if n <= 0 {
		return 0, c, errBadVarint
	}
	return v, c[n:], nil
}

// take returns the next n raw payload bytes. The returned slice aliases the
// scratch buffer: copy before retaining.
func (c cursor) take(n uint64) ([]byte, cursor, error) {
	if n > uint64(len(c)) {
		return nil, c, errShortPayload
	}
	return c[:n], c[n:], nil
}

func (c cursor) str() (string, cursor, error) {
	n, c, err := c.u()
	if err != nil {
		return "", c, err
	}
	b, c, err := c.take(n)
	if err != nil {
		return "", c, err
	}
	return string(b), c, nil
}

func (c cursor) key() (keyspace.Key, cursor, error) {
	s, c, err := c.str()
	return keyspace.Key(s), c, err
}

func (c cursor) end() error {
	if len(c) != 0 {
		return errTrailing
	}
	return nil
}

func (d *binDecoder) decodeHello(h *helloMsg) error {
	v, c, err := d.cur.u()
	if err != nil {
		return err
	}
	hb, c, err := c.z()
	if err != nil {
		return err
	}
	h.Version = uint32(v)
	h.HeartbeatMillis = hb
	return c.end()
}

func (d *binDecoder) decodeShutdown(m *shutdownMsg) error {
	reason, c, err := d.cur.str()
	if err != nil {
		return err
	}
	m.Reason = reason
	return c.end()
}

func (d *binDecoder) decodeEventBatch(m *eventBatchMsg) error {
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	count, c, err := c.u()
	if err != nil {
		return err
	}
	// Every event costs at least three payload bytes (flags, key, vdelta), so
	// a count beyond the remaining payload is corrupt — reject it before it
	// sizes anything.
	if count > uint64(len(c)) {
		return errBadCount
	}
	// Reuse the caller's backing array; zero recycled elements first so no
	// event's Key/Value/Trace outlives its frame through the spare capacity.
	for i := range m.Evs {
		m.Evs[i] = core.ChangeEvent{}
	}
	evs := m.Evs[:0]
	// Values are copied out of the scratch buffer into one block per frame;
	// consumers may retain them. Sized lazily from the remaining payload, an
	// upper bound on total value bytes, so append never reallocates and every
	// earlier value slice stays valid.
	var vals []byte
	var prev core.Version
	for i := uint64(0); i < count; i++ {
		var fb []byte
		if fb, c, err = c.take(1); err != nil {
			return err
		}
		flags := fb[0]
		var key keyspace.Key
		if flags&evKeyLiteral != 0 {
			if key, c, err = c.key(); err != nil {
				return err
			}
			if len(d.keys) < keyDictCap {
				d.keys = append(d.keys, key)
			}
		} else {
			var ref uint64
			if ref, c, err = c.u(); err != nil {
				return err
			}
			if ref >= uint64(len(d.keys)) {
				return errBadKeyRef
			}
			key = d.keys[ref]
		}
		var delta int64
		if delta, c, err = c.z(); err != nil {
			return err
		}
		ver := core.Version(uint64(int64(prev) + delta))
		prev = ver
		var value []byte
		if flags&evHasValue != 0 {
			var n uint64
			var b []byte
			if n, c, err = c.u(); err != nil {
				return err
			}
			if b, c, err = c.take(n); err != nil {
				return err
			}
			if vals == nil {
				vals = make([]byte, 0, int(n)+len(c))
			}
			off := len(vals)
			vals = append(vals, b...)
			value = vals[off:len(vals):len(vals)]
		}
		var tr trace.ID
		if flags&evHasTrace != 0 {
			if tr, c, err = c.u(); err != nil {
				return err
			}
		}
		evs = append(evs, core.ChangeEvent{
			Key:     key,
			Mut:     core.Mutation{Op: core.Op(flags & evOpMask), Value: value},
			Version: ver,
			Trace:   tr,
		})
	}
	m.ID = id
	m.Evs = evs
	d.batched = true
	return c.end()
}

// decodeEventRepeat addresses m, the batch the last decodeEventBatch filled,
// to the repeat's watch.
func (d *binDecoder) decodeEventRepeat(m *eventBatchMsg) error {
	if !d.batched {
		return errNoBatch
	}
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	m.ID = id
	return c.end()
}

func (d *binDecoder) decodeProgress(m *progressMsg) error {
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	low, c, err := c.key()
	if err != nil {
		return err
	}
	high, c, err := c.key()
	if err != nil {
		return err
	}
	v, c, err := c.u()
	if err != nil {
		return err
	}
	m.ID = id
	m.P = core.ProgressEvent{Range: keyspace.Range{Low: low, High: high}, Version: core.Version(v)}
	return c.end()
}

func (d *binDecoder) decodeResync(m *resyncMsg) error {
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	low, c, err := c.key()
	if err != nil {
		return err
	}
	high, c, err := c.key()
	if err != nil {
		return err
	}
	minV, c, err := c.u()
	if err != nil {
		return err
	}
	reason, c, err := c.str()
	if err != nil {
		return err
	}
	m.ID = id
	m.R = core.ResyncEvent{
		Range:      keyspace.Range{Low: low, High: high},
		MinVersion: core.Version(minV),
		Reason:     reason,
	}
	return c.end()
}

// decodeSnapChunk decodes a snapshot chunk up to its entries — everything the
// receiver needs to pick the accumulator they belong on — and leaves
// binDecoder.cur at the entries. decodeSnapEntries must follow. A bound
// beyond maxSnapReserve is clamped here, so no caller ever sees an outside
// value it could size an allocation by.
func (d *binDecoder) decodeSnapChunk(m *snapChunk) error {
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	fb, c, err := c.take(1)
	if err != nil {
		return err
	}
	flags := fb[0]
	var bound uint64
	if flags&snapHasBound != 0 {
		if bound, c, err = c.u(); err != nil {
			return err
		}
	}
	at, c, err := c.u()
	if err != nil {
		return err
	}
	errStr, c, err := c.str()
	if err != nil {
		return err
	}
	*m = snapChunk{
		ID:    id,
		At:    core.Version(at),
		Bound: int(min(bound, maxSnapReserve)),
		Err:   errStr,
		Last:  flags&snapLast != 0,
	}
	d.cur = c
	return nil
}

// decodeSnapEntries appends the current snapshot chunk's entries to dst and
// returns it. The first pass validates every length and measures the chunk;
// only then does the second pass append, so an error returns dst exactly as
// it came in. Values land in one block sized to the chunk's value bytes and
// keys are substrings of one string per chunk: nothing aliases the scratch
// buffer, and a consumer retaining one entry pins one chunk's blocks.
func (d *binDecoder) decodeSnapEntries(dst []core.Entry) ([]core.Entry, error) {
	count, c, err := d.cur.u()
	if err != nil {
		return dst, err
	}
	// Each entry costs at least three payload bytes (key len, value marker,
	// vdelta).
	if count > uint64(len(c)) {
		return dst, errBadCount
	}
	body := c
	keyBytes := d.snapKeys[:0]
	valBytes := 0
	for i := uint64(0); i < count; i++ {
		var n uint64
		var k []byte
		if n, c, err = c.u(); err != nil {
			return dst, err
		}
		if k, c, err = c.take(n); err != nil {
			return dst, err
		}
		keyBytes = append(keyBytes, k...)
		if n, c, err = c.u(); err != nil {
			return dst, err
		}
		if n > 0 {
			if _, c, err = c.take(n - 1); err != nil {
				return dst, err
			}
			valBytes += int(n - 1)
		}
		if _, c, err = c.z(); err != nil {
			return dst, err
		}
	}
	d.snapKeys = keyBytes
	if err := c.end(); err != nil {
		return dst, err
	}
	if count == 0 {
		return dst, nil
	}

	// Second pass over a payload known to be well formed.
	c = body
	keys := string(keyBytes)
	vals := make([]byte, 0, valBytes)
	dst = slices.Grow(dst, int(count))
	var prev core.Version
	off := 0
	for i := uint64(0); i < count; i++ {
		var n uint64
		var delta int64
		n, c, _ = c.u()
		key := keyspace.Key(keys[off : off+int(n)])
		off += int(n)
		c = c[n:]
		var value []byte
		if n, c, _ = c.u(); n > 0 {
			v := len(vals)
			vals = append(vals, c[:n-1]...)
			value = vals[v:len(vals):len(vals)]
			c = c[n-1:]
		}
		delta, c, _ = c.z()
		prev = core.Version(uint64(int64(prev) + delta))
		dst = append(dst, core.Entry{Key: key, Value: value, Version: prev})
	}
	return dst, nil
}

func (d *binDecoder) decodeOverloaded(m *overloadedMsg) error {
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	retry, c, err := c.z()
	if err != nil {
		return err
	}
	reason, c, err := c.str()
	if err != nil {
		return err
	}
	m.ID = id
	m.RetryAfterMillis = retry
	m.Reason = reason
	return c.end()
}

func (d *binDecoder) decodeWatch(w *watchReq) error {
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	low, c, err := c.key()
	if err != nil {
		return err
	}
	high, c, err := c.key()
	if err != nil {
		return err
	}
	from, c, err := c.u()
	if err != nil {
		return err
	}
	w.ID = id
	w.Low = low
	w.High = high
	w.From = core.Version(from)
	return c.end()
}

func (d *binDecoder) decodeCancel(cr *cancelReq) error {
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	cr.ID = id
	return c.end()
}

func (d *binDecoder) decodeSnapshot(sr *snapshotReq) error {
	id, c, err := d.cur.u()
	if err != nil {
		return err
	}
	low, c, err := c.key()
	if err != nil {
		return err
	}
	high, c, err := c.key()
	if err != nil {
		return err
	}
	sr.ID = id
	sr.Low = low
	sr.High = high
	return c.end()
}
