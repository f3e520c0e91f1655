package ledger

import (
	"os"
	"path/filepath"
	"testing"

	"cdb/internal/testutil"
)

// writeSession produces a ledger directory with a known record sequence
// and returns the WAL bytes. Fsync policy never: the test mutates the
// file directly, durability is irrelevant.
func writeSession(t *testing.T, dir string, n int) []byte {
	t.Helper()
	l := openT(t, dir, Options{Seed: 11, Fsync: FsyncNever})
	for i := 0; i < n; i++ {
		l.AppendVerdict(testVerdict(i))
		if i%4 == 0 {
			l.AppendStatement("SELECT " + testVerdict(i).Key + ";")
		}
	}
	l.AppendAnswer(Answer{Stmt: "SELECT done;", Columns: []string{"x"}, Rows: [][]string{{"1"}}})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestCrashRecoveryAtEveryOffset is the torn-tail property test: a WAL
// cut at ANY byte offset — frame boundary, mid-header, mid-payload —
// must open without error, replay a prefix of the logged records, and
// leave a truncated file that reopens with identical state. A crash can
// stop a write anywhere; no offset may be fatal.
func TestCrashRecoveryAtEveryOffset(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	master := t.TempDir()
	wal := writeSession(t, master, 12)

	full := openT(t, master, Options{Seed: 11, Fsync: FsyncNever})
	fullVerdicts := full.Verdicts()
	fullStmts := full.Statements()
	full.Close()

	for cut := 0; cut <= len(wal); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Seed: 11, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		st := l.Stats()
		got := l.Verdicts()
		gotStmts := l.Statements()
		if err := l.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}

		// Replayed state must be a prefix of the full session, in order.
		// Settledness is position-relative: the full session's final
		// answer settles every verdict, but a cut that lost the answer
		// legitimately leaves its verdicts unsettled.
		if len(got) > len(fullVerdicts) {
			t.Fatalf("cut=%d: %d verdicts from a %d-verdict log", cut, len(got), len(fullVerdicts))
		}
		for i, v := range got {
			if v.Settled != (st.Answers > 0) {
				t.Fatalf("cut=%d: verdict[%d].Settled = %v with %d answers replayed", cut, i, v.Settled, st.Answers)
			}
			want := fullVerdicts[i]
			want.Settled = v.Settled
			if v != want {
				t.Fatalf("cut=%d: verdict[%d] = %+v, want %+v", cut, i, v, want)
			}
		}
		if len(gotStmts) > len(fullStmts) {
			t.Fatalf("cut=%d: %d statements from a %d-statement log", cut, len(gotStmts), len(fullStmts))
		}
		for i, s := range gotStmts {
			if s != fullStmts[i] {
				t.Fatalf("cut=%d: statement[%d] = %q, want %q", cut, i, s, fullStmts[i])
			}
		}

		// The torn file was truncated to whole frames: reopening must
		// see the same state with no further truncation.
		fi, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{Seed: 11, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("cut=%d: reopen failed: %v", cut, err)
		}
		st2 := l2.Stats()
		l2.Close()
		if st2.TornTruncations != 0 {
			t.Fatalf("cut=%d: reopen still saw a torn tail (file %d bytes)", cut, fi.Size())
		}
		if st2.Verdicts != st.Verdicts || st2.Statements != st.Statements || st2.Answers != st.Answers {
			t.Fatalf("cut=%d: reopen state %+v != first-open state %+v", cut, st2, st)
		}

		// A cut strictly inside the file must have been recorded as a
		// torn truncation unless it landed exactly on a frame boundary.
		if cut == len(wal) && st.TornTruncations != 0 {
			t.Fatalf("uncut log reported a torn tail: %+v", st)
		}
	}
}

// TestCrashRecoveryBitFlip corrupts one byte inside a frame body: the
// CRC must catch it and the replay must stop at the previous frame.
func TestCrashRecoveryBitFlip(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	master := t.TempDir()
	wal := writeSession(t, master, 6)

	// Flip a byte well inside the final frame's payload.
	dir := t.TempDir()
	mut := append([]byte(nil), wal...)
	mut[len(mut)-3] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, walName), mut, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{Seed: 11, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open with bit-flip: %v", err)
	}
	defer l.Close()
	st := l.Stats()
	if st.TornTruncations != 1 {
		t.Fatalf("TornTruncations = %d, want 1", st.TornTruncations)
	}
	// The damaged record was the answer (last appended); everything
	// before it survives.
	if st.Answers != 0 {
		t.Fatalf("damaged final record replayed anyway: %+v", st)
	}
	if st.Verdicts == 0 {
		t.Fatalf("records before the damage were lost: %+v", st)
	}
}
