package ledger

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestLedgerWireFormat pins the on-disk ledger format — frame layout
// and record JSON — to a golden file, mirroring the HTTP wire pin in
// the root wire_test.go. A ledger directory outlives any single binary:
// an engine must replay logs written by earlier builds, so a change
// here must be deliberate (run `go test ./internal/ledger -run
// TestLedgerWireFormat -update`, bump formatVersion if the change is
// incompatible, and update DESIGN.md §15), not discovered by a
// failed warm restart in production.
func TestLedgerWireFormat(t *testing.T) {
	buf := goldenWAL()
	got := hexDump(buf)

	path := filepath.Join("testdata", "ledger_wire.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test ./internal/ledger -run TestLedgerWireFormat -update` after a deliberate format change)", err)
	}
	if got != string(want) {
		t.Errorf("on-disk ledger format drifted from %s.\nThis breaks replay of ledgers written by earlier builds.\ngot:\n%s\nwant:\n%s", path, got, want)
	}

	// The golden bytes must also still replay: the pin is only useful
	// if the current reader accepts the current writer's output.
	l := &Log{
		opts:     Options{Seed: 7},
		verdicts: make(map[string]Verdict),
		stmts:    make(map[string]bool),
		answers:  make(map[string]Answer),
		vseq:     make(map[string]int64),
	}
	valid, err := l.replay(buf)
	if err != nil {
		t.Fatalf("replay of pinned bytes: %v", err)
	}
	if valid != int64(len(buf)) {
		t.Fatalf("replay stopped at %d of %d bytes", valid, len(buf))
	}
	if len(l.verdicts) != 1 || len(l.stmts) != 1 || len(l.answers) != 1 {
		t.Fatalf("pinned bytes replayed to %d/%d/%d records", len(l.verdicts), len(l.stmts), len(l.answers))
	}
}

// goldenWAL is the pinned byte image: a header and one record of each
// kind.
func goldenWAL() []byte {
	var buf []byte
	hdr, _ := json.Marshal(header{Version: formatVersion, Kind: "wal", Seed: 7})
	buf = appendFrame(buf, frameHeader, hdr)
	stmt, _ := json.Marshal(statementRecord{Stmt: "SELECT * FROM Paper;"})
	buf = appendFrame(buf, frameStatement, stmt)
	v, _ := json.Marshal(Verdict{
		Key:         "15\x1fjoin:a|b",
		Value:       true,
		Confidence:  0.875,
		Assignments: 15,
	})
	buf = appendFrame(buf, frameVerdict, v)
	a, _ := json.Marshal(Answer{
		Stmt:    "SELECT * FROM Paper;",
		Columns: []string{"title"},
		Rows:    [][]string{{"x"}, {"y"}},
		Report:  json.RawMessage(`{"tasks":2,"rounds":1}`),
	})
	return appendFrame(buf, frameAnswer, a)
}

// FuzzScanFrames: no input panics the frame scanner, the valid prefix
// it reports lies inside the buffer, and that prefix alone scans to the
// same frames and the same length — so truncating a log to it, as
// replay does to a torn tail, loses nothing that was accepted.
func FuzzScanFrames(f *testing.F) {
	golden := goldenWAL()
	f.Add(golden)
	f.Add(golden[:len(golden)-3])                                                       // torn tail
	f.Add(append(golden[:len(golden):len(golden)], 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)) // oversized length
	f.Add(appendFrame(nil, 'V', []byte("abc")))
	f.Add([]byte{})
	type frame struct {
		typ  byte
		body string
	}
	scan := func(t *testing.T, buf []byte) ([]frame, int64) {
		var frames []frame
		n, err := scanFrames(buf, func(typ byte, body []byte) error {
			frames = append(frames, frame{typ, string(body)})
			return nil
		})
		if err != nil {
			t.Fatalf("scanFrames: %v", err)
		}
		return frames, n
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		frames, n := scan(t, buf)
		if n < 0 || n > int64(len(buf)) {
			t.Fatalf("valid prefix %d of a %d-byte buffer", n, len(buf))
		}
		again, m := scan(t, buf[:n])
		if m != n || !reflect.DeepEqual(frames, again) {
			t.Fatalf("rescanning the %d-byte prefix: %d frames to %d, want %d frames to %d", n, len(again), m, len(frames), n)
		}
	})
}

// TestRecordJSONFieldOrder pins each record kind's exact JSON: replay
// tolerates unknown fields, but renames or re-typings of existing
// fields would silently drop data from old ledgers.
func TestRecordJSONFieldOrder(t *testing.T) {
	cases := []struct {
		name string
		rec  any
		want string
	}{
		{
			"header",
			header{Version: 1, Kind: "wal", Seed: 7},
			`{"version":1,"kind":"wal","seed":7}`,
		},
		{
			"statement",
			statementRecord{Stmt: "SELECT 1;"},
			`{"stmt":"SELECT 1;"}`,
		},
		{
			"verdict",
			Verdict{Key: "5\x1fk", Value: true, Confidence: 0.8, Assignments: 5},
			`{"key":"5\u001fk","value":true,"conf":0.8,"asks":5}`,
		},
		{
			"verdict-minimal",
			Verdict{Key: "5\x1fk", Confidence: 0.6, Assignments: 5},
			`{"key":"5\u001fk","value":false,"conf":0.6,"asks":5}`,
		},
		{
			"answer",
			Answer{Stmt: "SELECT 1;", Columns: []string{"a"}, Rows: [][]string{{"1"}}, Report: json.RawMessage(`{}`)},
			`{"stmt":"SELECT 1;","columns":["a"],"rows":[["1"]],"report":{}}`,
		},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s record JSON drifted:\ngot  %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestFrameLayout pins the 8-byte frame header: little-endian payload
// length, then CRC32-IEEE over type byte + body.
func TestFrameLayout(t *testing.T) {
	frame := appendFrame(nil, 'V', []byte("abc"))
	want := []byte{
		0x04, 0x00, 0x00, 0x00, // payload length 4, LE
		0xb2, 0x17, 0x47, 0x05, // CRC32-IEEE("Vabc"), LE
		'V', 'a', 'b', 'c',
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame bytes drifted:\ngot  % x\nwant % x", frame, want)
	}
}

// hexDump renders buf as a stable offset/hex/ASCII listing.
func hexDump(buf []byte) string {
	var b bytes.Buffer
	for off := 0; off < len(buf); off += 16 {
		end := off + 16
		if end > len(buf) {
			end = len(buf)
		}
		line := buf[off:end]
		fmt.Fprintf(&b, "%08x  ", off)
		for i := 0; i < 16; i++ {
			if i < len(line) {
				fmt.Fprintf(&b, "%02x ", line[i])
			} else {
				b.WriteString("   ")
			}
			if i == 7 {
				b.WriteByte(' ')
			}
		}
		b.WriteString(" |")
		for _, c := range line {
			if c < 0x20 || c > 0x7e {
				c = '.'
			}
			b.WriteByte(c)
		}
		b.WriteString("|\n")
	}
	return b.String()
}
