package remote

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unbundle/internal/core"
)

// FuzzDecodeFrame drives the binary decoder with arbitrary bytes, decoded
// exactly the way the read loops do: read a tag, dispatch to the matching
// decode method, repeat until the stream errors. The decoder must never
// panic, never allocate proportionally to an attacker-controlled length
// field, and must reject every malformed frame with an error (which the read
// loops turn into a typed ProtocolError plus a decode-error counter bump).
// The seed corpus is the golden wire-format fixtures, so every legitimate
// frame shape is a mutation starting point.
func FuzzDecodeFrame(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "golden", "*.hex"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no golden fixtures to seed from (run TestGoldenWireFormat -update-golden): %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(frame)
		// A two-frame stream seeds cross-frame state (the key dictionary).
		f.Add(append(append([]byte{}, frame...), frame...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFrameStream(t, data)
	})
}

// decodeFrameStream consumes data as one connection's binary frame stream,
// mirroring the dispatch in readFrames/serveConn. Returns on the first error.
func decodeFrameStream(t *testing.T, data []byte) {
	dec := newBinDecoder(bufio.NewReader(bytes.NewReader(data)))
	var batch eventBatchMsg
	for frames := 0; frames < 64; frames++ { // bound work per input
		tag, err := dec.readTag()
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF && len(dec.buf) > maxFrameLen {
				t.Fatalf("scratch grew past maxFrameLen: %d", len(dec.buf))
			}
			return
		}
		switch tag {
		case tagHello:
			var h helloMsg
			err = dec.decodeHello(&h)
		case tagHeartbeat:
			// Tag-only frame.
		case tagShutdown:
			var m shutdownMsg
			err = dec.decodeShutdown(&m)
		case tagWatch:
			var w watchReq
			err = dec.decodeWatch(&w)
		case tagCancel:
			var cr cancelReq
			err = dec.decodeCancel(&cr)
		case tagSnapshot:
			var sr snapshotReq
			err = dec.decodeSnapshot(&sr)
		case tagEventBatch:
			err = dec.decodeEventBatch(&batch)
		case tagEventRepeat:
			err = dec.decodeEventRepeat(&batch)
		case tagProgress:
			var m progressMsg
			err = dec.decodeProgress(&m)
		case tagResync:
			var m resyncMsg
			err = dec.decodeResync(&m)
		case tagSnapChunk:
			var m snapChunk
			if err = dec.decodeSnapChunk(&m); err == nil {
				err = decodeSnapEntriesChecked(t, dec, &m)
			}
		case tagOverloaded:
			var m overloadedMsg
			err = dec.decodeOverloaded(&m)
		default:
			return // unknown tag: the read loops kill the connection here
		}
		if err != nil {
			return
		}
	}
}

// decodeSnapEntriesChecked decodes the current chunk's entries twice — onto
// nothing, and onto an accumulator that already holds an entry and is sized
// by the chunk's announced bound — and requires that the bound came out of
// the header clamped, that it changed nothing but capacity, and that a failed
// decode left the accumulator as it was.
func decodeSnapEntriesChecked(t *testing.T, dec *binDecoder, m *snapChunk) error {
	if m.Bound < 0 || m.Bound > maxSnapReserve {
		t.Fatalf("bound %d escaped the clamp", m.Bound)
	}
	body := dec.cur
	plain, err := dec.decodeSnapEntries(nil)
	dec.cur = body
	held := core.Entry{Key: "held", Value: []byte("v"), Version: 1}
	acc := make([]core.Entry, 1, 1+min(m.Bound, 1<<12))
	acc[0] = held
	sized, err2 := dec.decodeSnapEntries(acc)
	if (err == nil) != (err2 == nil) {
		t.Fatalf("same entries decoded with err %v onto nothing, %v onto an accumulator", err, err2)
	}
	if !reflect.DeepEqual(sized[0], held) {
		t.Fatalf("decode overwrote the accumulator's contents: %+v", sized[0])
	}
	if err != nil {
		if len(plain) != 0 || len(sized) != 1 {
			t.Fatalf("failed decode left %d and %d entries behind", len(plain), len(sized)-1)
		}
		return err
	}
	if len(sized)-1 != len(plain) || (len(plain) > 0 && !reflect.DeepEqual(sized[1:], plain)) {
		t.Fatalf("bound %d changed the entries: %d vs %d", m.Bound, len(sized)-1, len(plain))
	}
	return nil
}

// TestFuzzCorpusRegression replays the checked-in golden fixtures (and any
// saved crash corpus) through the fuzz body without the fuzzing engine, so
// plain `go test` still covers the seed inputs.
func TestFuzzCorpusRegression(t *testing.T) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "golden", "*.hex"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no golden fixtures: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		decodeFrameStream(t, frame)
		decodeFrameStream(t, append(append([]byte{}, frame...), frame...))
	}
}
