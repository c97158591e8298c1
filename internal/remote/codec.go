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
// buffered writes per frame. Not safe for concurrent use — each connection
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

func (e *binEncoder) u(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *binEncoder) z(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

func (e *binEncoder) str(s string) {
	e.u(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// bytes1 is the nil-preserving byte-slice encoding: 0 = nil, n+1 = n bytes.
func (e *binEncoder) bytes1(b []byte) {
	if b == nil {
		e.u(0)
		return
	}
	e.u(uint64(len(b)) + 1)
	e.buf = append(e.buf, b...)
}

// frame writes the scratch payload as one tagged frame.
func (e *binEncoder) frame(tag uint8) error {
	e.hdr = append(e.hdr[:0], tag)
	e.hdr = binary.AppendUvarint(e.hdr, uint64(len(e.buf)))
	if _, err := e.w.Write(e.hdr); err != nil {
		return err
	}
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	return err
}

func (e *binEncoder) hello(h *helloMsg) error {
	e.buf = e.buf[:0]
	e.u(uint64(h.Version))
	e.z(h.HeartbeatMillis)
	return e.frame(tagHello)
}

func (e *binEncoder) heartbeat() error {
	e.buf = e.buf[:0]
	return e.frame(tagHeartbeat)
}

func (e *binEncoder) shutdown(m *shutdownMsg) error {
	e.buf = e.buf[:0]
	e.str(m.Reason)
	return e.frame(tagShutdown)
}

func (e *binEncoder) eventBatch(id uint64, evs []core.ChangeEvent) error {
	e.buf = e.buf[:0]
	e.u(id)
	e.u(uint64(len(evs)))
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
		e.buf = append(e.buf, flags)
		if known {
			e.u(uint64(idx))
		} else {
			e.str(string(ev.Key))
			if len(e.keys) < keyDictCap {
				e.keys[ev.Key] = uint32(len(e.keys))
			}
		}
		e.z(int64(ev.Version) - int64(prev))
		prev = ev.Version
		if ev.Mut.Value != nil {
			e.u(uint64(len(ev.Mut.Value)))
			e.buf = append(e.buf, ev.Mut.Value...)
		}
		if ev.Trace != 0 {
			e.u(uint64(ev.Trace))
		}
	}
	return e.frame(tagEventBatch)
}

// eventRepeat sends the previous event batch again, to watch id.
func (e *binEncoder) eventRepeat(id uint64) error {
	e.buf = e.buf[:0]
	e.u(id)
	return e.frame(tagEventRepeat)
}

func (e *binEncoder) progress(id uint64, p core.ProgressEvent) error {
	e.buf = e.buf[:0]
	e.u(id)
	e.str(string(p.Range.Low))
	e.str(string(p.Range.High))
	e.u(uint64(p.Version))
	return e.frame(tagProgress)
}

func (e *binEncoder) resync(id uint64, r core.ResyncEvent) error {
	e.buf = e.buf[:0]
	e.u(id)
	e.str(string(r.Range.Low))
	e.str(string(r.Range.High))
	e.u(uint64(r.MinVersion))
	e.str(r.Reason)
	return e.frame(tagResync)
}

func (e *binEncoder) snapChunk(ch *snapChunk) error {
	e.buf = e.buf[:0]
	e.u(ch.ID)
	var flags byte
	if ch.Last {
		flags |= snapLast
	}
	if ch.Bound > 0 {
		flags |= snapHasBound
	}
	e.buf = append(e.buf, flags)
	if ch.Bound > 0 {
		e.u(uint64(ch.Bound))
	}
	e.u(uint64(ch.At))
	e.str(ch.Err)
	e.u(uint64(len(ch.Entries)))
	prev := core.NoVersion
	for i := range ch.Entries {
		en := &ch.Entries[i]
		e.str(string(en.Key))
		e.bytes1(en.Value)
		e.z(int64(en.Version) - int64(prev))
		prev = en.Version
	}
	return e.frame(tagSnapChunk)
}

func (e *binEncoder) overloaded(m *overloadedMsg) error {
	e.buf = e.buf[:0]
	e.u(m.ID)
	e.z(m.RetryAfterMillis)
	e.str(m.Reason)
	return e.frame(tagOverloaded)
}

func (e *binEncoder) watch(w *watchReq) error {
	e.buf = e.buf[:0]
	e.u(w.ID)
	e.str(string(w.Low))
	e.str(string(w.High))
	e.u(uint64(w.From))
	return e.frame(tagWatch)
}

func (e *binEncoder) cancelWatch(cr *cancelReq) error {
	e.buf = e.buf[:0]
	e.u(cr.ID)
	return e.frame(tagCancel)
}

func (e *binEncoder) snapshot(sr *snapshotReq) error {
	e.buf = e.buf[:0]
	e.u(sr.ID)
	e.str(string(sr.Low))
	e.str(string(sr.High))
	return e.frame(tagSnapshot)
}

// binDecoder is the frame decoder: readTag pulls one whole frame (header +
// payload) into a reusable scratch buffer; the decode methods parse it with
// every length, count and reference validated. Not safe for concurrent use.
type binDecoder struct {
	r        *bufio.Reader
	buf      []byte         // frame payload scratch, reused across frames
	cur      []byte         // unparsed remainder of the current payload
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

func (d *binDecoder) u() (uint64, error) {
	v, n := binary.Uvarint(d.cur)
	if n <= 0 {
		return 0, errBadVarint
	}
	d.cur = d.cur[n:]
	return v, nil
}

func (d *binDecoder) z() (int64, error) {
	v, n := binary.Varint(d.cur)
	if n <= 0 {
		return 0, errBadVarint
	}
	d.cur = d.cur[n:]
	return v, nil
}

// take returns the next n raw payload bytes. The returned slice aliases the
// scratch buffer: copy before retaining.
func (d *binDecoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.cur)) {
		return nil, errShortPayload
	}
	b := d.cur[:n]
	d.cur = d.cur[n:]
	return b, nil
}

func (d *binDecoder) str() (string, error) {
	n, err := d.u()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (d *binDecoder) key() (keyspace.Key, error) {
	s, err := d.str()
	return keyspace.Key(s), err
}

// bytes1 decodes the nil-preserving byte-slice encoding into dst's tail,
// returning the grown dst and the value's slice of it (nil for the nil
// marker). dst must have capacity for every value remaining in the frame so
// earlier values are never invalidated by growth; callers size it from the
// remaining payload length, which is always an upper bound.
func (d *binDecoder) bytes1(dst []byte) ([]byte, []byte, error) {
	n, err := d.u()
	if err != nil {
		return dst, nil, err
	}
	if n == 0 {
		return dst, nil, nil
	}
	b, err := d.take(n - 1)
	if err != nil {
		return dst, nil, err
	}
	off := len(dst)
	dst = append(dst, b...)
	return dst, dst[off:len(dst):len(dst)], nil
}

func (d *binDecoder) end() error {
	if len(d.cur) != 0 {
		return errTrailing
	}
	return nil
}

func (d *binDecoder) decodeHello(h *helloMsg) error {
	v, err := d.u()
	if err != nil {
		return err
	}
	hb, err := d.z()
	if err != nil {
		return err
	}
	h.Version = uint32(v)
	h.HeartbeatMillis = hb
	return d.end()
}

func (d *binDecoder) decodeShutdown(m *shutdownMsg) error {
	reason, err := d.str()
	if err != nil {
		return err
	}
	m.Reason = reason
	return d.end()
}

func (d *binDecoder) decodeEventBatch(m *eventBatchMsg) error {
	id, err := d.u()
	if err != nil {
		return err
	}
	count, err := d.u()
	if err != nil {
		return err
	}
	// Every event costs at least three payload bytes (flags, key, vdelta), so
	// a count beyond the remaining payload is corrupt — reject it before it
	// sizes anything.
	if count > uint64(len(d.cur)) {
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
		fb, err := d.take(1)
		if err != nil {
			return err
		}
		flags := fb[0]
		var key keyspace.Key
		if flags&evKeyLiteral != 0 {
			key, err = d.key()
			if err != nil {
				return err
			}
			if len(d.keys) < keyDictCap {
				d.keys = append(d.keys, key)
			}
		} else {
			ref, err := d.u()
			if err != nil {
				return err
			}
			if ref >= uint64(len(d.keys)) {
				return errBadKeyRef
			}
			key = d.keys[ref]
		}
		delta, err := d.z()
		if err != nil {
			return err
		}
		ver := core.Version(uint64(int64(prev) + delta))
		prev = ver
		var value []byte
		if flags&evHasValue != 0 {
			n, err := d.u()
			if err != nil {
				return err
			}
			b, err := d.take(n)
			if err != nil {
				return err
			}
			if vals == nil {
				vals = make([]byte, 0, int(n)+len(d.cur))
			}
			off := len(vals)
			vals = append(vals, b...)
			value = vals[off:len(vals):len(vals)]
		}
		var tr trace.ID
		if flags&evHasTrace != 0 {
			tr, err = d.u()
			if err != nil {
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
	return d.end()
}

// decodeEventRepeat addresses m, the batch the last decodeEventBatch filled,
// to the repeat's watch.
func (d *binDecoder) decodeEventRepeat(m *eventBatchMsg) error {
	if !d.batched {
		return errNoBatch
	}
	id, err := d.u()
	if err != nil {
		return err
	}
	m.ID = id
	return d.end()
}

func (d *binDecoder) decodeProgress(m *progressMsg) error {
	id, err := d.u()
	if err != nil {
		return err
	}
	low, err := d.key()
	if err != nil {
		return err
	}
	high, err := d.key()
	if err != nil {
		return err
	}
	v, err := d.u()
	if err != nil {
		return err
	}
	m.ID = id
	m.P = core.ProgressEvent{Range: keyspace.Range{Low: low, High: high}, Version: core.Version(v)}
	return d.end()
}

func (d *binDecoder) decodeResync(m *resyncMsg) error {
	id, err := d.u()
	if err != nil {
		return err
	}
	low, err := d.key()
	if err != nil {
		return err
	}
	high, err := d.key()
	if err != nil {
		return err
	}
	minV, err := d.u()
	if err != nil {
		return err
	}
	reason, err := d.str()
	if err != nil {
		return err
	}
	m.ID = id
	m.R = core.ResyncEvent{
		Range:      keyspace.Range{Low: low, High: high},
		MinVersion: core.Version(minV),
		Reason:     reason,
	}
	return d.end()
}

// decodeSnapChunk decodes a snapshot chunk up to its entries — everything the
// receiver needs to pick the accumulator they belong on. decodeSnapEntries
// must follow. A bound beyond maxSnapReserve is clamped here, so no caller
// ever sees an outside value it could size an allocation by.
func (d *binDecoder) decodeSnapChunk(m *snapChunk) error {
	id, err := d.u()
	if err != nil {
		return err
	}
	fb, err := d.take(1)
	if err != nil {
		return err
	}
	flags := fb[0]
	var bound uint64
	if flags&snapHasBound != 0 {
		if bound, err = d.u(); err != nil {
			return err
		}
	}
	at, err := d.u()
	if err != nil {
		return err
	}
	errStr, err := d.str()
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
	return nil
}

// decodeSnapEntries appends the current snapshot chunk's entries to dst and
// returns it. The first pass validates every length and measures the chunk;
// only then does the second pass append, so an error returns dst exactly as
// it came in. Values land in one block sized to the chunk's value bytes and
// keys are substrings of one string per chunk: nothing aliases the scratch
// buffer, and a consumer retaining one entry pins one chunk's blocks.
func (d *binDecoder) decodeSnapEntries(dst []core.Entry) ([]core.Entry, error) {
	count, err := d.u()
	if err != nil {
		return dst, err
	}
	// Each entry costs at least three payload bytes (key len, value marker,
	// vdelta).
	if count > uint64(len(d.cur)) {
		return dst, errBadCount
	}
	body := d.cur
	d.snapKeys = d.snapKeys[:0]
	valBytes := 0
	for i := uint64(0); i < count; i++ {
		n, err := d.u()
		if err != nil {
			return dst, err
		}
		k, err := d.take(n)
		if err != nil {
			return dst, err
		}
		d.snapKeys = append(d.snapKeys, k...)
		if n, err = d.u(); err != nil {
			return dst, err
		}
		if n > 0 {
			if _, err := d.take(n - 1); err != nil {
				return dst, err
			}
			valBytes += int(n - 1)
		}
		if _, err := d.z(); err != nil {
			return dst, err
		}
	}
	if err := d.end(); err != nil {
		return dst, err
	}
	if count == 0 {
		return dst, nil
	}

	// Second pass over a payload known to be well formed.
	d.cur = body
	keys := string(d.snapKeys)
	vals := make([]byte, 0, valBytes)
	dst = slices.Grow(dst, int(count))
	var prev core.Version
	off := 0
	for i := uint64(0); i < count; i++ {
		n, _ := d.u()
		d.cur = d.cur[n:]
		key := keyspace.Key(keys[off : off+int(n)])
		off += int(n)
		var value []byte
		vals, value, _ = d.bytes1(vals)
		delta, _ := d.z()
		prev = core.Version(uint64(int64(prev) + delta))
		dst = append(dst, core.Entry{Key: key, Value: value, Version: prev})
	}
	return dst, nil
}

func (d *binDecoder) decodeOverloaded(m *overloadedMsg) error {
	id, err := d.u()
	if err != nil {
		return err
	}
	retry, err := d.z()
	if err != nil {
		return err
	}
	reason, err := d.str()
	if err != nil {
		return err
	}
	m.ID = id
	m.RetryAfterMillis = retry
	m.Reason = reason
	return d.end()
}

func (d *binDecoder) decodeWatch(w *watchReq) error {
	id, err := d.u()
	if err != nil {
		return err
	}
	low, err := d.key()
	if err != nil {
		return err
	}
	high, err := d.key()
	if err != nil {
		return err
	}
	from, err := d.u()
	if err != nil {
		return err
	}
	w.ID = id
	w.Low = low
	w.High = high
	w.From = core.Version(from)
	return d.end()
}

func (d *binDecoder) decodeCancel(cr *cancelReq) error {
	id, err := d.u()
	if err != nil {
		return err
	}
	cr.ID = id
	return d.end()
}

func (d *binDecoder) decodeSnapshot(sr *snapshotReq) error {
	id, err := d.u()
	if err != nil {
		return err
	}
	low, err := d.key()
	if err != nil {
		return err
	}
	high, err := d.key()
	if err != nil {
		return err
	}
	sr.ID = id
	sr.Low = low
	sr.High = high
	return d.end()
}
