package ledger

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cdb/internal/testutil"
)

func testVerdict(i int) Verdict {
	return Verdict{
		Key:         "15\x1fjoin:paper:" + strings.Repeat("k", i+1),
		Value:       i%2 == 0,
		Confidence:  0.8,
		Assignments: 15,
	}
}

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func TestRoundTrip(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	l := openT(t, dir, Options{Seed: 7, Fsync: FsyncNever})
	for i := 0; i < 10; i++ {
		l.AppendVerdict(testVerdict(i))
	}
	l.AppendStatement("SELECT * FROM A;")
	l.AppendStatement("SELECT * FROM B;")
	l.AppendAnswer(Answer{
		Stmt:    "SELECT * FROM A;",
		Columns: []string{"x"},
		Rows:    [][]string{{"1"}, {"2"}},
		Report:  json.RawMessage(`{"tasks":3}`),
	})
	st := l.Stats()
	if st.Verdicts != 10 || st.Statements != 2 || st.Answers != 1 {
		t.Fatalf("pre-close stats = %+v", st)
	}
	if st.Appended != 13 {
		t.Fatalf("Appended = %d, want 13", st.Appended)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, dir, Options{Seed: 7, Fsync: FsyncNever})
	defer l2.Close()
	st = l2.Stats()
	if st.Verdicts != 10 || st.Statements != 2 || st.Answers != 1 {
		t.Fatalf("post-reopen stats = %+v", st)
	}
	// 13 records; the header frame is validated, not counted.
	if st.Replayed != 13 {
		t.Fatalf("Replayed = %d, want 13", st.Replayed)
	}
	if st.TornTruncations != 0 {
		t.Fatalf("TornTruncations = %d, want 0", st.TornTruncations)
	}
	for i := 0; i < 10; i++ {
		want := testVerdict(i)
		// The answer was logged after every verdict, so all are settled.
		want.Settled = true
		got, ok := l2.Verdict(want.Key)
		if !ok || got != want {
			t.Fatalf("Verdict(%q) = %+v, %v; want %+v", want.Key, got, ok, want)
		}
	}
	if got := l2.Statements(); len(got) != 2 || got[0] != "SELECT * FROM A;" || got[1] != "SELECT * FROM B;" {
		t.Fatalf("Statements() = %q", got)
	}
	ans := l2.Answers()
	if len(ans) != 1 || ans[0].Stmt != "SELECT * FROM A;" || len(ans[0].Rows) != 2 {
		t.Fatalf("Answers() = %+v", ans)
	}
	if string(ans[0].Report) != `{"tasks":3}` {
		t.Fatalf("Report round-trip = %s", ans[0].Report)
	}
}

func TestFirstLoggedOrderSurvivesReplay(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	l := openT(t, dir, Options{Seed: 1, Fsync: FsyncNever})
	var wantKeys []string
	for i := 9; i >= 0; i-- {
		v := testVerdict(i)
		l.AppendVerdict(v)
		wantKeys = append(wantKeys, v.Key)
	}
	l.Close()

	l2 := openT(t, dir, Options{Seed: 1, Fsync: FsyncNever})
	defer l2.Close()
	got := l2.Verdicts()
	if len(got) != len(wantKeys) {
		t.Fatalf("replayed %d verdicts, want %d", len(got), len(wantKeys))
	}
	for i, v := range got {
		if v.Key != wantKeys[i] {
			t.Fatalf("replay order[%d] = %q, want %q", i, v.Key, wantKeys[i])
		}
	}
}

func TestDuplicateAppendsAreDropped(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	l := openT(t, t.TempDir(), Options{Seed: 1, Fsync: FsyncNever})
	defer l.Close()
	v := testVerdict(0)
	for i := 0; i < 5; i++ {
		l.AppendVerdict(v)
		l.AppendStatement("SELECT 1;")
		l.AppendAnswer(Answer{Stmt: "SELECT 1;"})
	}
	st := l.Stats()
	if st.Verdicts != 1 || st.Statements != 1 || st.Answers != 1 {
		t.Fatalf("stats = %+v, want one of each", st)
	}
	if st.Appended != 3 {
		t.Fatalf("Appended = %d, want 3 (duplicates must not hit the WAL)", st.Appended)
	}
}

func TestSeedMismatchRefusesOpen(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	l := openT(t, dir, Options{Seed: 7, Fsync: FsyncNever})
	l.AppendVerdict(testVerdict(0))
	l.Close()

	if _, err := Open(dir, Options{Seed: 8, Fsync: FsyncNever}); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("Open with wrong seed: err = %v, want ErrSeedMismatch", err)
	}
	// The right seed still works after the refused attempt.
	l2 := openT(t, dir, Options{Seed: 7, Fsync: FsyncNever})
	defer l2.Close()
	if st := l2.Stats(); st.Verdicts != 1 {
		t.Fatalf("stats after refused open = %+v", st)
	}
}

// TestOpenReplaysLegacySnapshot pins the read path kept for ledger
// directories an older build compacted: Open replays snapshot.ldg, in
// its interleaved first-logged order, before the WAL, applies records
// the two files share once, and never rewrites the snapshot.
func TestOpenReplaysLegacySnapshot(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	frame := func(buf []byte, typ byte, rec any) []byte {
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return appendFrame(buf, typ, body)
	}
	v0, v1, v2 := testVerdict(0), testVerdict(1), testVerdict(2)
	ans := Answer{Stmt: "SELECT * FROM A;", Columns: []string{"x"}, Rows: [][]string{{"1"}}}

	// v0 was logged before the answer, so its query finished; v1 after
	// it, the tail a kill cut mid-query.
	var snap []byte
	snap = frame(snap, frameHeader, header{Version: formatVersion, Kind: "snap", Seed: 5})
	snap = frame(snap, frameVerdict, v0)
	snap = frame(snap, frameAnswer, ans)
	snap = frame(snap, frameVerdict, v1)
	var wal []byte
	wal = frame(wal, frameHeader, header{Version: formatVersion, Kind: "wal", Seed: 5})
	wal = frame(wal, frameVerdict, v0)
	wal = frame(wal, frameVerdict, v2)
	snapPath := filepath.Join(dir, snapName)
	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	l := openT(t, dir, Options{Seed: 5, Fsync: FsyncNever})
	st := l.Stats()
	if st.Verdicts != 3 || st.Answers != 1 {
		t.Fatalf("stats = %+v, want 3 verdicts and 1 answer", st)
	}
	// Headers are not records; the WAL's repeat of v0 still counts.
	if st.Replayed != 5 {
		t.Fatalf("Replayed = %d, want 5 (3 from the snapshot, 2 from the WAL)", st.Replayed)
	}
	for _, c := range []struct {
		v       Verdict
		settled bool
	}{{v0, true}, {v1, false}, {v2, false}} {
		got, ok := l.Verdict(c.v.Key)
		if !ok || got.Settled != c.settled {
			t.Fatalf("Verdict(%q) = %+v, %v; want Settled=%v", c.v.Key, got, ok, c.settled)
		}
	}

	for i := 3; i < 40; i++ {
		l.AppendVerdict(testVerdict(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(snap) {
		t.Fatalf("snapshot.ldg rewritten: %d bytes, was %d", len(after), len(snap))
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			defer testutil.VerifyNoLeaks(t)()
			dir := t.TempDir()
			l := openT(t, dir, Options{Seed: 9, Fsync: pol, FsyncEvery: 5 * time.Millisecond})
			for i := 0; i < 20; i++ {
				l.AppendVerdict(testVerdict(i))
			}
			if pol == FsyncInterval {
				// Give the background writer at least one tick.
				time.Sleep(20 * time.Millisecond)
			}
			l.Sync()
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2 := openT(t, dir, Options{Seed: 9, Fsync: pol, FsyncEvery: 5 * time.Millisecond})
			if st := l2.Stats(); st.Verdicts != 20 {
				t.Fatalf("policy %s: reopen sees %d verdicts, want 20", pol, st.Verdicts)
			}
			l2.Close()
		})
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want FsyncPolicy
		err  bool
	}{
		{"always", FsyncAlways, false},
		{"interval", FsyncInterval, false},
		{"", FsyncInterval, false},
		{"never", FsyncNever, false},
		{"sometimes", 0, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	if FsyncAlways.String() != "always" || FsyncInterval.String() != "interval" || FsyncNever.String() != "never" {
		t.Errorf("String round-trip broken: %q %q %q", FsyncAlways, FsyncInterval, FsyncNever)
	}
}

func TestCloseIsIdempotentAndStopsAppends(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	l := openT(t, dir, Options{Seed: 2})
	l.AppendVerdict(testVerdict(0))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Post-close appends stay in memory, never touch the closed file.
	l.AppendVerdict(testVerdict(1))
	l.Sync()
	if st := l.Stats(); st.Verdicts != 2 || st.AppendErrors != 0 {
		t.Fatalf("post-close stats = %+v", st)
	}
	l2 := openT(t, dir, Options{Seed: 2})
	defer l2.Close()
	if st := l2.Stats(); st.Verdicts != 1 {
		t.Fatalf("reopen sees %d verdicts, want only the pre-close one", st.Verdicts)
	}
}

func TestUnknownFrameTypeIsSkipped(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	l := openT(t, dir, Options{Seed: 4, Fsync: FsyncNever})
	l.AppendVerdict(testVerdict(0))
	l.Close()

	// Append a valid frame of an unknown future type, then another
	// verdict: replay must skip the stranger and keep going.
	path := filepath.Join(dir, walName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf = appendFrame(buf, 'Z', []byte(`{"future":"record"}`))
	v1 := testVerdict(1)
	body, _ := json.Marshal(v1)
	buf = appendFrame(buf, frameVerdict, body)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{Seed: 4, Fsync: FsyncNever})
	defer l2.Close()
	st := l2.Stats()
	if st.Verdicts != 2 {
		t.Fatalf("verdicts after unknown frame = %d, want 2", st.Verdicts)
	}
	if st.TornTruncations != 0 {
		t.Fatalf("unknown frame type treated as torn tail: %+v", st)
	}
	if _, ok := l2.Verdict(v1.Key); !ok {
		t.Fatalf("record after the unknown frame was not replayed")
	}
}

func TestBadJSONInValidFrameIsSkipped(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	l := openT(t, dir, Options{Seed: 4, Fsync: FsyncNever})
	l.Close()

	path := filepath.Join(dir, walName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf = appendFrame(buf, frameVerdict, []byte(`{"key": not json`))
	v := testVerdict(0)
	body, _ := json.Marshal(v)
	buf = appendFrame(buf, frameVerdict, body)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{Seed: 4, Fsync: FsyncNever})
	defer l2.Close()
	if st := l2.Stats(); st.Verdicts != 1 || st.TornTruncations != 0 {
		t.Fatalf("stats = %+v, want the good verdict replayed and no torn tail", st)
	}
}
