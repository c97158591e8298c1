package remote

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire-format fixtures under testdata/golden")

// newTestEncoder returns a binary encoder writing into buf.
func newTestEncoder(buf *bytes.Buffer) (*binEncoder, *bufio.Writer) {
	bw := bufio.NewWriter(buf)
	return newBinEncoder(bw), bw
}

// goldenFrames are the canonical frames of the golden wire-format test: every
// frame type, covering literal and dictionary keys, put and delete ops,
// nil / empty / non-empty values, traced and untraced events, and negative
// version deltas. encode builds the frame (one encoder per fixture, except
// where the fixture itself exercises cross-event dictionary state); check
// decodes the fixture bytes back and compares against the expected struct.
var goldenFrames = []struct {
	name   string
	encode func(e *binEncoder) error
	check  func(t *testing.T, d *binDecoder, tag uint8)
}{
	{
		name:   "hello",
		encode: func(e *binEncoder) error { return e.hello(&helloMsg{Version: protoVersion, HeartbeatMillis: 1000}) },
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagHello)
			var h helloMsg
			if err := d.decodeHello(&h); err != nil {
				t.Fatal(err)
			}
			want := helloMsg{Version: protoVersion, HeartbeatMillis: 1000}
			if h != want {
				t.Fatalf("decoded %+v, want %+v", h, want)
			}
		},
	},
	{
		name:   "heartbeat",
		encode: func(e *binEncoder) error { return e.heartbeat() },
		check:  func(t *testing.T, d *binDecoder, tag uint8) { requireTag(t, tag, tagHeartbeat) },
	},
	{
		name: "overloaded",
		encode: func(e *binEncoder) error {
			return e.overloaded(&overloadedMsg{ID: 7, RetryAfterMillis: 250, Reason: "govern: overloaded"})
		},
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagOverloaded)
			var m overloadedMsg
			if err := d.decodeOverloaded(&m); err != nil {
				t.Fatal(err)
			}
			want := overloadedMsg{ID: 7, RetryAfterMillis: 250, Reason: "govern: overloaded"}
			if m != want {
				t.Fatalf("decoded %+v, want %+v", m, want)
			}
		},
	},
	{
		name:   "shutdown",
		encode: func(e *binEncoder) error { return e.shutdown(&shutdownMsg{Reason: "remote: server draining"}) },
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagShutdown)
			var m shutdownMsg
			if err := d.decodeShutdown(&m); err != nil {
				t.Fatal(err)
			}
			if m.Reason != "remote: server draining" {
				t.Fatalf("reason %q", m.Reason)
			}
		},
	},
	{
		name:   "watch",
		encode: func(e *binEncoder) error { return e.watch(&watchReq{ID: 7, Low: "a", High: "q", From: 42}) },
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagWatch)
			var w watchReq
			if err := d.decodeWatch(&w); err != nil {
				t.Fatal(err)
			}
			want := watchReq{ID: 7, Low: "a", High: "q", From: 42}
			if w != want {
				t.Fatalf("decoded %+v, want %+v", w, want)
			}
		},
	},
	{
		name:   "cancel",
		encode: func(e *binEncoder) error { return e.cancelWatch(&cancelReq{ID: 7}) },
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagCancel)
			var cr cancelReq
			if err := d.decodeCancel(&cr); err != nil {
				t.Fatal(err)
			}
			if cr.ID != 7 {
				t.Fatalf("id %d", cr.ID)
			}
		},
	},
	{
		name: "snapshot",
		encode: func(e *binEncoder) error {
			return e.snapshot(&snapshotReq{ID: 9, Low: "", High: keyspace.Inf})
		},
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagSnapshot)
			var sr snapshotReq
			if err := d.decodeSnapshot(&sr); err != nil {
				t.Fatal(err)
			}
			want := snapshotReq{ID: 9, Low: "", High: keyspace.Inf}
			if sr != want {
				t.Fatalf("decoded %+v, want %+v", sr, want)
			}
		},
	},
	{
		name: "progress",
		encode: func(e *binEncoder) error {
			return e.progress(7, core.ProgressEvent{Range: keyspace.Range{Low: "a", High: "q"}, Version: 99})
		},
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagProgress)
			var m progressMsg
			if err := d.decodeProgress(&m); err != nil {
				t.Fatal(err)
			}
			want := progressMsg{ID: 7, P: core.ProgressEvent{Range: keyspace.Range{Low: "a", High: "q"}, Version: 99}}
			if m != want {
				t.Fatalf("decoded %+v, want %+v", m, want)
			}
		},
	},
	{
		name: "resync",
		encode: func(e *binEncoder) error {
			return e.resync(7, core.ResyncEvent{Range: keyspace.Full(), MinVersion: 5, Reason: "overflow"})
		},
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagResync)
			var m resyncMsg
			if err := d.decodeResync(&m); err != nil {
				t.Fatal(err)
			}
			want := resyncMsg{ID: 7, R: core.ResyncEvent{Range: keyspace.Full(), MinVersion: 5, Reason: "overflow"}}
			if m != want {
				t.Fatalf("decoded %+v, want %+v", m, want)
			}
		},
	},
	{
		name:   "event_batch",
		encode: func(e *binEncoder) error { return e.eventBatch(7, goldenBatch()) },
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagEventBatch)
			var m eventBatchMsg
			if err := d.decodeEventBatch(&m); err != nil {
				t.Fatal(err)
			}
			if m.ID != 7 || !reflect.DeepEqual(m.Evs, goldenBatch()) {
				t.Fatalf("decoded %+v, want id 7 evs %+v", m, goldenBatch())
			}
		},
	},
	{
		// A repeat only means something after a batch, so this fixture is
		// the two-frame stream: the batch, then its repeat for watch 9.
		name: "event_repeat",
		encode: func(e *binEncoder) error {
			if err := e.eventBatch(7, goldenBatch()); err != nil {
				return err
			}
			return e.eventRepeat(9)
		},
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagEventBatch)
			var m eventBatchMsg
			if err := d.decodeEventBatch(&m); err != nil {
				t.Fatal(err)
			}
			tag, err := d.readTag()
			if err != nil {
				t.Fatal(err)
			}
			requireTag(t, tag, tagEventRepeat)
			if err := d.decodeEventRepeat(&m); err != nil {
				t.Fatal(err)
			}
			if m.ID != 9 || !reflect.DeepEqual(m.Evs, goldenBatch()) {
				t.Fatalf("decoded %+v, want id 9 evs %+v", m, goldenBatch())
			}
		},
	},
	{
		name:   "event_batch_empty",
		encode: func(e *binEncoder) error { return e.eventBatch(1, nil) },
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagEventBatch)
			var m eventBatchMsg
			if err := d.decodeEventBatch(&m); err != nil {
				t.Fatal(err)
			}
			if m.ID != 1 || len(m.Evs) != 0 {
				t.Fatalf("decoded %+v, want empty batch id 1", m)
			}
		},
	},
	{
		name:   "snap_chunk",
		encode: func(e *binEncoder) error { return e.snapChunk(goldenChunk()) },
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagSnapChunk)
			if m := decodeWholeChunk(t, d); !reflect.DeepEqual(m, goldenChunk()) {
				t.Fatalf("decoded %+v, want %+v", *m, *goldenChunk())
			}
		},
	},
	{
		name: "snap_chunk_err",
		encode: func(e *binEncoder) error {
			return e.snapChunk(&snapChunk{ID: 3, Err: "boom", Last: true})
		},
		check: func(t *testing.T, d *binDecoder, tag uint8) {
			requireTag(t, tag, tagSnapChunk)
			want := &snapChunk{ID: 3, Err: "boom", Last: true}
			if m := decodeWholeChunk(t, d); !reflect.DeepEqual(m, want) {
				t.Fatalf("decoded %+v, want %+v", *m, *want)
			}
		},
	},
}

// goldenBatch exercises every event-level encoding feature in one frame:
// literal keys entering the dictionary (events 1-2), dictionary references
// back to them (events 3-4), put and delete, nil / empty / binary values, a
// traced event, and a negative version delta (event 4 steps backwards).
func goldenBatch() []core.ChangeEvent {
	return []core.ChangeEvent{
		{Key: "users/000000000001", Mut: core.Mutation{Op: core.OpPut, Value: []byte("alpha")}, Version: 100},
		{Key: "users/000000000002", Mut: core.Mutation{Op: core.OpDelete}, Version: 101, Trace: 0xdeadbeef},
		{Key: "users/000000000001", Mut: core.Mutation{Op: core.OpPut, Value: []byte{}}, Version: 103},
		{Key: "users/000000000002", Mut: core.Mutation{Op: core.OpPut, Value: []byte{0x00, 0xff}}, Version: 90},
	}
}

func goldenChunk() *snapChunk {
	return &snapChunk{
		ID: 9,
		Entries: []core.Entry{
			{Key: "a", Value: nil, Version: 5},
			{Key: "b", Value: []byte{}, Version: 6},
			{Key: "c", Value: []byte("xyz"), Version: 4},
		},
		At:    6,
		Bound: 3,
		Last:  true,
	}
}

// decodeWholeChunk decodes the snapshot chunk whose tag was just read, its
// entries onto an empty accumulator.
func decodeWholeChunk(t *testing.T, d *binDecoder) *snapChunk {
	t.Helper()
	var m snapChunk
	if err := d.decodeSnapChunk(&m); err != nil {
		t.Fatal(err)
	}
	var err error
	if m.Entries, err = d.decodeSnapEntries(nil); err != nil {
		t.Fatal(err)
	}
	return &m
}

func requireTag(t *testing.T, got, want uint8) {
	t.Helper()
	if got != want {
		t.Fatalf("frame tag = %d, want %d", got, want)
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".hex")
}

// TestGoldenWireFormat pins the wire byte layout: every canonical frame must
// encode to exactly the committed hex fixture, and the fixture must decode
// back to the expected value. Any codec change that shifts bytes fails here
// loudly; deliberate format changes regenerate with -update-golden (which is
// a protocol version bump, not a patch). The fixtures double as the
// FuzzDecodeFrame seed corpus.
func TestGoldenWireFormat(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc, bw := newTestEncoder(&buf)
			if err := g.encode(enc); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			got := hex.EncodeToString(buf.Bytes())

			path := goldenPath(g.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden): %v", err)
			}
			if got != strings.TrimSpace(string(want)) {
				t.Fatalf("wire layout changed:\n got %s\nwant %s", got, strings.TrimSpace(string(want)))
			}

			// And the fixture decodes back to the value that produced it.
			dec := newBinDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes())))
			tag, err := dec.readTag()
			if err != nil {
				t.Fatal(err)
			}
			g.check(t, dec, tag)
		})
	}
}

// randBatch builds a pseudo-random but wire-realistic batch: keys from a hot
// set (so the dictionary path is exercised), near-monotonic versions with
// occasional jumps backwards, mixed ops, values of varying size including nil
// and empty, sparse traces.
func randBatch(rng *rand.Rand, n int, ver *core.Version) []core.ChangeEvent {
	evs := make([]core.ChangeEvent, n)
	for i := range evs {
		*ver += core.Version(rng.Intn(3))
		if rng.Intn(16) == 0 && *ver > 50 {
			*ver -= 40
		}
		ev := core.ChangeEvent{
			Key:     keyspace.NumericKey(rng.Intn(200)),
			Version: *ver,
		}
		switch rng.Intn(4) {
		case 0:
			ev.Mut = core.Mutation{Op: core.OpDelete}
		case 1:
			ev.Mut = core.Mutation{Op: core.OpPut, Value: []byte{}}
		default:
			v := make([]byte, rng.Intn(48))
			rng.Read(v)
			ev.Mut = core.Mutation{Op: core.OpPut, Value: v}
		}
		if rng.Intn(8) == 0 {
			ev.Trace = rng.Uint64()
		}
		evs[i] = ev
	}
	return evs
}

// randChunk builds a pseudo-random snapshot chunk: empty keys and keys of
// 128 bytes or more (a two-byte length), nil, empty and non-empty values,
// scattered versions (negative deltas), and random header fields.
func randChunk(rng *rand.Rand, id uint64) *snapChunk {
	ch := &snapChunk{ID: id, At: core.Version(rng.Intn(1 << 20)), Last: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		ch.Bound = rng.Intn(maxSnapReserve)
	}
	if rng.Intn(8) == 0 {
		ch.Err = "snapshot failed"
	}
	for n := rng.Intn(40); len(ch.Entries) < n; {
		en := core.Entry{Version: core.Version(1 + rng.Intn(1<<20))}
		switch rng.Intn(8) {
		case 0: // empty key
		case 1:
			en.Key = keyspace.Key(strings.Repeat("k", 128+rng.Intn(200)))
		default:
			en.Key = keyspace.NumericKey(rng.Intn(1 << 20))
		}
		switch rng.Intn(4) {
		case 0: // nil value
		case 1:
			en.Value = []byte{}
		default:
			en.Value = make([]byte, 1+rng.Intn(200))
			rng.Read(en.Value)
		}
		ch.Entries = append(ch.Entries, en)
	}
	return ch
}

// TestCodecRoundTripRandom streams many random frames through one
// encoder/decoder pair — the per-connection shape, so the key dictionary
// accumulates state across frames — and requires exact round-trips. Random
// snapshot chunks are interleaved with the event batches on the same stream.
func TestCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	chunkRng := rand.New(rand.NewSource(43))
	var buf bytes.Buffer
	enc, bw := newTestEncoder(&buf)

	const frames = 200
	var ver core.Version
	sent := make([][]core.ChangeEvent, frames)
	chunks := make([]*snapChunk, frames) // the chunk sent before batch i, if any
	for i := range sent {
		if chunkRng.Intn(3) == 0 {
			chunks[i] = randChunk(chunkRng, uint64(i))
			if err := enc.snapChunk(chunks[i]); err != nil {
				t.Fatal(err)
			}
		}
		sent[i] = randBatch(rng, 1+rng.Intn(64), &ver)
		if err := enc.eventBatch(uint64(i), sent[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	dec := newBinDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	var m eventBatchMsg
	for i := range sent {
		if want := chunks[i]; want != nil {
			tag, err := dec.readTag()
			if err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			requireTag(t, tag, tagSnapChunk)
			got := decodeWholeChunk(t, dec)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk %d mismatched after round trip:\n got %+v\nwant %+v", i, got, want)
			}
		}
		tag, err := dec.readTag()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		requireTag(t, tag, tagEventBatch)
		if err := dec.decodeEventBatch(&m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.ID != uint64(i) || !reflect.DeepEqual(m.Evs, sent[i]) {
			t.Fatalf("frame %d mismatched after round trip", i)
		}
	}
}

// TestCodecKeyDictCap crosses the dictionary capacity: beyond keyDictCap
// distinct keys both sides must stop adding by the same rule and keep
// round-tripping (later keys travel as literals).
func TestCodecKeyDictCap(t *testing.T) {
	var buf bytes.Buffer
	enc, bw := newTestEncoder(&buf)
	const total = keyDictCap + 500
	const per = 1000
	var frames [][]core.ChangeEvent
	for base := 0; base < total; base += per {
		evs := make([]core.ChangeEvent, 0, per)
		for i := base; i < base+per && i < total; i++ {
			evs = append(evs, core.ChangeEvent{
				Key:     keyspace.Key(fmt.Sprintf("k%07d", i)),
				Mut:     core.Mutation{Op: core.OpPut, Value: []byte("v")},
				Version: core.Version(i + 1),
			})
		}
		// Re-reference an early (dictionary-resident) key in every frame so
		// refs and post-cap literals interleave.
		evs = append(evs, core.ChangeEvent{
			Key:     keyspace.Key(fmt.Sprintf("k%07d", 0)),
			Mut:     core.Mutation{Op: core.OpPut, Value: []byte("w")},
			Version: core.Version(base + per + 1),
		})
		if err := enc.eventBatch(uint64(len(frames)), evs); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, evs)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(enc.keys) != keyDictCap {
		t.Fatalf("encoder dictionary size %d, want %d", len(enc.keys), keyDictCap)
	}

	dec := newBinDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	var m eventBatchMsg
	for i, want := range frames {
		if _, err := dec.readTag(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := dec.decodeEventBatch(&m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(m.Evs, want) {
			t.Fatalf("frame %d mismatched after dict cap", i)
		}
	}
	if len(dec.keys) != keyDictCap {
		t.Fatalf("decoder dictionary size %d, want %d", len(dec.keys), keyDictCap)
	}
}

// TestCodecValueRetention decodes one frame, retains its values (the
// EventBatchCallback contract allows it), then decodes more frames into the
// same decoder: the retained bytes must not be overwritten by scratch reuse.
func TestCodecValueRetention(t *testing.T) {
	var buf bytes.Buffer
	enc, bw := newTestEncoder(&buf)
	first := []core.ChangeEvent{
		{Key: "a", Mut: core.Mutation{Op: core.OpPut, Value: []byte("hold-me")}, Version: 1},
		{Key: "b", Mut: core.Mutation{Op: core.OpPut, Value: []byte("me-too")}, Version: 2},
	}
	if err := enc.eventBatch(1, first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		evs := []core.ChangeEvent{{
			Key:     "a",
			Mut:     core.Mutation{Op: core.OpPut, Value: bytes.Repeat([]byte{byte(i)}, 64)},
			Version: core.Version(3 + i),
		}}
		if err := enc.eventBatch(uint64(2+i), evs); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	dec := newBinDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	var m eventBatchMsg
	if _, err := dec.readTag(); err != nil {
		t.Fatal(err)
	}
	if err := dec.decodeEventBatch(&m); err != nil {
		t.Fatal(err)
	}
	retained := make([][]byte, len(m.Evs))
	for i := range m.Evs {
		retained[i] = m.Evs[i].Mut.Value
	}
	for {
		if _, err := dec.readTag(); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		if err := dec.decodeEventBatch(&m); err != nil {
			t.Fatal(err)
		}
	}
	if string(retained[0]) != "hold-me" || string(retained[1]) != "me-too" {
		t.Fatalf("retained values corrupted by later decodes: %q %q", retained[0], retained[1])
	}
}

// corruptCase is one malformed-payload scenario for the decode hardening
// test: mutate a valid frame and require a clean error (no panic, no hang).
type corruptCase struct {
	name    string
	mutate  func(frame []byte) []byte
	wantErr error // nil: any error accepted
}

// TestDecodeFrameHardening mutates valid frames in targeted ways and
// requires the decoder to reject each with a typed error instead of
// panicking, over-allocating, or reading past the payload.
func TestDecodeFrameHardening(t *testing.T) {
	var buf bytes.Buffer
	enc, bw := newTestEncoder(&buf)
	if err := enc.eventBatch(7, goldenBatch()); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []corruptCase{
		{
			name: "huge frame length",
			mutate: func(f []byte) []byte {
				// tag, then an absurd uvarint length.
				return []byte{tagEventBatch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
			},
			wantErr: errFrameTooBig,
		},
		{
			name: "count exceeds payload",
			mutate: func(f []byte) []byte {
				// id=0, count=2^20, no event bytes.
				payload := []byte{0x00, 0x80, 0x80, 0x40}
				out := []byte{tagEventBatch, byte(len(payload))}
				return append(out, payload...)
			},
			wantErr: errBadCount,
		},
		{
			name: "dangling key ref",
			mutate: func(f []byte) []byte {
				// One event referencing dictionary slot 9 of an empty dict.
				payload := []byte{0x01 /*id*/, 0x01 /*count*/, byte(core.OpPut) /*flags: ref key*/, 0x09 /*ref*/, 0x02 /*vdelta*/}
				out := []byte{tagEventBatch, byte(len(payload))}
				return append(out, payload...)
			},
			wantErr: errBadKeyRef,
		},
		{
			name: "trailing bytes",
			mutate: func(f []byte) []byte {
				out := append([]byte{}, f...)
				out[1] += 2 // grow the declared payload
				return append(out, 0xaa, 0xbb)
			},
			wantErr: errTrailing,
		},
		{
			name: "truncated value length",
			mutate: func(f []byte) []byte {
				// id=1, count=1, put with value flag, literal key "k", vdelta,
				// then a value length pointing past the payload end.
				payload := []byte{0x01, 0x01, byte(core.OpPut) | evKeyLiteral | evHasValue, 0x01, 'k', 0x02, 0x7f}
				out := []byte{tagEventBatch, byte(len(payload))}
				return append(out, payload...)
			},
			wantErr: errShortPayload,
		},
		// Snapshot chunks: a well-formed header (id 1, no flags, at 0, no
		// error), then malformed entries.
		{
			name:    "snapshot count exceeds payload",
			mutate:  func([]byte) []byte { return snapFrame(0x80, 0x80, 0x40) },
			wantErr: errBadCount,
		},
		{
			name:    "snapshot truncated key",
			mutate:  func([]byte) []byte { return snapFrame(0x01, 0x05, 'a', 'b') },
			wantErr: errShortPayload,
		},
		{
			name:    "snapshot truncated value",
			mutate:  func([]byte) []byte { return snapFrame(0x01, 0x01, 'k', 0x0a, 'v', 'w') },
			wantErr: errShortPayload,
		},
		{
			name:    "snapshot bad value length",
			mutate:  func([]byte) []byte { return snapFrame(0x01, 0x01, 'k', 0x80, 0x80) },
			wantErr: errBadVarint,
		},
		{
			name:    "snapshot bad version delta",
			mutate:  func([]byte) []byte { return snapFrame(0x01, 0x01, 'k', 0x00, 0x80) },
			wantErr: errBadVarint,
		},
		{
			name:    "snapshot trailing byte",
			mutate:  func([]byte) []byte { return snapFrame(0x01, 0x01, 'k', 0x00, 0x02, 0xaa) },
			wantErr: errTrailing,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte{}, valid...))
			dec := newBinDecoder(bufio.NewReader(bytes.NewReader(data)))
			tag, err := dec.readTag()
			if err == nil {
				switch tag {
				case tagEventBatch:
					var m eventBatchMsg
					err = dec.decodeEventBatch(&m)
				case tagSnapChunk:
					err = decodeOntoHeld(t, dec)
				default:
					t.Fatalf("unexpected frame tag %d", tag)
				}
			}
			if err == nil {
				t.Fatal("malformed frame decoded without error")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// snapFrame is a snapshot chunk frame: id 1, no flags, at 0, no error, then
// entries — the count and what follows it.
func snapFrame(entries ...byte) []byte {
	payload := append([]byte{0x01, 0x00, 0x00, 0x00}, entries...)
	return append([]byte{tagSnapChunk, byte(len(payload))}, payload...)
}

// decodeOntoHeld decodes the current snapshot chunk onto an accumulator that
// already holds one entry, and requires that a failed decode returns it with
// the same length and contents.
func decodeOntoHeld(t *testing.T, dec *binDecoder) error {
	t.Helper()
	var m snapChunk
	if err := dec.decodeSnapChunk(&m); err != nil {
		return err
	}
	held := core.Entry{Key: "held", Value: []byte("v"), Version: 1}
	acc := make([]core.Entry, 1, 8)
	acc[0] = held
	got, err := dec.decodeSnapEntries(acc)
	if err != nil && (len(got) != 1 || !reflect.DeepEqual(got[0], held)) {
		t.Fatalf("failed decode returned %d entries %+v, want the held one alone", len(got), got)
	}
	return err
}

// TestCodecSteadyStateAllocs pins the zero-alloc claim: once the scratch
// buffers and dictionary are warm, encoding a batch of dictionary-resident
// keys allocates nothing, and decoding allocates exactly one value block per
// frame; likewise for snapshot chunks, with one key string more on decode.
func TestCodecSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ver core.Version
	batch := randBatch(rng, 64, &ver)

	bw := bufio.NewWriterSize(io.Discard, 1<<20)
	enc := newBinEncoder(bw)
	if err := enc.eventBatch(1, batch); err != nil { // warm scratch + dictionary
		t.Fatal(err)
	}
	encAllocs := testing.AllocsPerRun(100, func() {
		if err := enc.eventBatch(1, batch); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs != 0 {
		t.Fatalf("encode allocs/op = %v, want 0", encAllocs)
	}

	var buf bytes.Buffer
	enc2, bw2 := newTestEncoder(&buf)
	const frames = 300
	for i := 0; i < frames; i++ {
		if err := enc2.eventBatch(uint64(i), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw2.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := newBinDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	var m eventBatchMsg
	// Warm: first frame pays the literal keys + scratch growth.
	if _, err := dec.readTag(); err != nil {
		t.Fatal(err)
	}
	if err := dec.decodeEventBatch(&m); err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(frames-2, func() {
		if _, err := dec.readTag(); err != nil {
			t.Fatal(err)
		}
		if err := dec.decodeEventBatch(&m); err != nil {
			t.Fatal(err)
		}
	})
	// One value block per frame: values are retainable by consumers, so they
	// cannot live in the scratch buffer.
	if decAllocs > 1 {
		t.Fatalf("decode allocs/op = %v, want <= 1", decAllocs)
	}

	// A repeat allocates nothing: not to encode, and not to decode and
	// deliver to a watch, since it re-addresses the batch last decoded.
	if encAllocs = testing.AllocsPerRun(100, func() {
		if err := enc.eventRepeat(2); err != nil {
			t.Fatal(err)
		}
	}); encAllocs != 0 {
		t.Fatalf("repeat encode allocs/op = %v, want 0", encAllocs)
	}
	const repeats = 100
	var rbuf bytes.Buffer
	renc, rbw := newTestEncoder(&rbuf)
	if err := renc.eventBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < repeats; i++ {
		if err := renc.eventRepeat(2); err != nil {
			t.Fatal(err)
		}
	}
	if err := rbw.Flush(); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	c := &Client{watches: map[uint64]*clientWatch{
		2: {id: 2, cb: core.Funcs{Event: func(core.ChangeEvent) { delivered++ }}},
	}}
	dec = newBinDecoder(bufio.NewReader(bytes.NewReader(rbuf.Bytes())))
	if _, err := dec.readTag(); err != nil {
		t.Fatal(err)
	}
	if err := dec.decodeEventBatch(&m); err != nil {
		t.Fatal(err)
	}
	decAllocs = testing.AllocsPerRun(repeats-1, func() {
		if _, err := dec.readTag(); err != nil {
			t.Fatal(err)
		}
		if err := dec.decodeEventRepeat(&m); err != nil {
			t.Fatal(err)
		}
		c.deliverBatch(&m)
	})
	if decAllocs != 0 {
		t.Fatalf("repeat decode+deliver allocs/op = %v, want 0", decAllocs)
	}
	if delivered != repeats*len(batch) {
		t.Fatalf("repeats delivered %d events, want %d", delivered, repeats*len(batch))
	}

	// Snapshot chunks: a full chunk encodes without allocating, and decodes
	// onto a pre-sized accumulator for one key string and one value block
	// (bound 3: room for one size-class surprise), whatever its entry count.
	chunk := &snapChunk{ID: 1, At: 9, Entries: newFixedSnapStore(snapChunkEntries, 64).entries}
	if err := enc.snapChunk(chunk); err != nil {
		t.Fatal(err)
	}
	encAllocs = testing.AllocsPerRun(100, func() {
		if err := enc.snapChunk(chunk); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs != 0 {
		t.Fatalf("snapshot chunk encode allocs/op = %v, want 0", encAllocs)
	}
	const chunks = 40
	buf.Reset()
	for i := 0; i < chunks; i++ {
		if err := enc2.snapChunk(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw2.Flush(); err != nil {
		t.Fatal(err)
	}
	dec = newBinDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	acc := make([]core.Entry, 0, chunks*snapChunkEntries)
	decodeChunk := func() {
		var m snapChunk
		if _, err := dec.readTag(); err != nil {
			t.Fatal(err)
		}
		err := dec.decodeSnapChunk(&m)
		if err == nil {
			acc, err = dec.decodeSnapEntries(acc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	decodeChunk() // warm: scratch growth
	if decAllocs = testing.AllocsPerRun(chunks-2, decodeChunk); decAllocs > 3 {
		t.Fatalf("snapshot chunk decode allocs/op = %v, want <= 3", decAllocs)
	}
	if len(acc) != chunks*snapChunkEntries {
		t.Fatalf("accumulated %d entries, want %d", len(acc), chunks*snapChunkEntries)
	}
}

// TestSnapshotBoundIsOutsideInput feeds a client two-chunk snapshot responses
// whose announced entry-count bound is absent, too small, right, too large
// and absurd. The bound may change the capacity the client reserves — never
// beyond the clamp — and nothing else: every response yields the same five
// entries.
func TestSnapshotBoundIsOutsideInput(t *testing.T) {
	all := newFixedSnapStore(5, 3).entries
	for _, tc := range []struct {
		name    string
		bound   int
		wantCap int // exact capacity expected, 0 = whatever append grew
	}{
		{"unknown", 0, 0},
		{"too small", 2, 0},
		{"exact", 5, 5},
		{"too large", 1000, 1000},
		{"absurd", 1 << 62, maxSnapReserve},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc, bw := newTestEncoder(&buf)
			for _, ch := range []*snapChunk{
				{ID: 7, Entries: all[:3], At: 9, Bound: tc.bound},
				{ID: 7, Entries: all[3:], At: 9, Last: true},
			} {
				if err := enc.snapChunk(ch); err != nil {
					t.Fatal(err)
				}
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			acc := &snapAccum{ch: make(chan snapResult, 1)}
			c := &Client{snaps: map[uint64]*snapAccum{7: acc}}
			dec := newBinDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes())))
			for i := 0; i < 2; i++ {
				tag, err := dec.readTag()
				if err != nil {
					t.Fatal(err)
				}
				requireTag(t, tag, tagSnapChunk)
				if err := c.readSnapChunk(dec); err != nil {
					t.Fatal(err)
				}
			}
			res := <-acc.ch
			if res.at != 9 || !reflect.DeepEqual(res.entries, all) {
				t.Fatalf("bound %d: got %d entries at %v, want the 5 sent at v9", tc.bound, len(res.entries), res.at)
			}
			if got := cap(res.entries); got > maxSnapReserve || (tc.wantCap != 0 && got != tc.wantCap) {
				t.Fatalf("bound %d reserved capacity %d, want %d", tc.bound, got, tc.wantCap)
			}
		})
	}
}

// benchBatch is the codec microbench workload: 64 events over a 64-key hot
// set, 16-byte values, sequential versions — the RemoteFanout shape.
func benchBatch() []core.ChangeEvent {
	evs := make([]core.ChangeEvent, 64)
	for i := range evs {
		evs[i] = core.ChangeEvent{
			Key:     keyspace.NumericKey(i % 64),
			Mut:     core.Mutation{Op: core.OpPut, Value: bytes.Repeat([]byte{byte(i)}, 16)},
			Version: core.Version(i + 1),
		}
	}
	return evs
}

// BenchmarkCodecEncodeBatch encodes one 64-event batch per op.
func BenchmarkCodecEncodeBatch(b *testing.B) {
	batch := benchBatch()
	enc := newBinEncoder(bufio.NewWriterSize(io.Discard, 1<<20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.eventBatch(1, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecodeBatch decodes a pre-encoded stream of 64-event frames.
// Each inner pass re-reads the same stream; the per-op unit is one frame (64
// events).
func BenchmarkCodecDecodeBatch(b *testing.B) {
	batch := benchBatch()
	const frames = 256
	var buf bytes.Buffer
	enc, bw := newTestEncoder(&buf)
	for i := 0; i < frames; i++ {
		if err := enc.eventBatch(uint64(i), batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		dec := newBinDecoder(bufio.NewReader(bytes.NewReader(stream)))
		var m eventBatchMsg
		for j := 0; j < frames && i < b.N; j, i = j+1, i+1 {
			if _, err := dec.readTag(); err != nil {
				b.Fatal(err)
			}
			if err := dec.decodeEventBatch(&m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchChunk is a full snapshot chunk: snapChunkEntries entries of 12-byte
// keys and 64-byte values, versions scattered so most deltas take several
// bytes, as in a store that was written in no particular key order.
func benchChunk() *snapChunk {
	entries := newFixedSnapStore(snapChunkEntries, 64).entries
	for i := range entries {
		entries[i].Version = core.Version(1 + (i*7919)%100000)
	}
	return &snapChunk{ID: 1, At: 100000, Entries: entries}
}

// BenchmarkCodecEncodeSnapChunk encodes one full snapshot chunk per op.
func BenchmarkCodecEncodeSnapChunk(b *testing.B) {
	chunk := benchChunk()
	enc := newBinEncoder(bufio.NewWriterSize(io.Discard, 1<<20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.snapChunk(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecodeSnapChunk decodes one full snapshot chunk per op onto a
// reused accumulator.
func BenchmarkCodecDecodeSnapChunk(b *testing.B) {
	var buf bytes.Buffer
	enc, bw := newTestEncoder(&buf)
	if err := enc.snapChunk(benchChunk()); err != nil {
		b.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	br := bufio.NewReaderSize(r, len(frame))
	dec := newBinDecoder(br)
	acc := make([]core.Entry, 0, snapChunkEntries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		br.Reset(r)
		var m snapChunk
		if _, err := dec.readTag(); err != nil {
			b.Fatal(err)
		}
		err := dec.decodeSnapChunk(&m)
		if err == nil {
			acc, err = dec.decodeSnapEntries(acc[:0])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
