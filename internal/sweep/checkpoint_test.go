package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
)

// evalPoint evaluates one point of e the way a worker does.
func evalPoint(t testing.TB, e *harness.Experiment, p int) [][]string {
	t.Helper()
	rows, err := EvalPoint(e, true, p)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// grid is the {id → N} of a quick run over e alone; parseOne and openOne
// are ParseCheckpoint and OpenCheckpoint for that run.
func grid(e *harness.Experiment) map[string]int {
	return map[string]int{e.ID: e.Grid(true).N}
}

func parseOne(data []byte, e *harness.Experiment) (map[int][][]string, int, error) {
	done, valid, err := ParseCheckpoint(data, true, grid(e))
	return done[e.ID], valid, err
}

func openOne(path string, quick bool, e *harness.Experiment) (*Checkpoint, map[int][][]string, int, error) {
	cp, done, torn, err := OpenCheckpoint(path, quick, grid(e))
	return cp, done[e.ID], torn, err
}

// journalChunks renders n single-point records for e through the real
// worker path and returns them individually.
func journalChunks(t testing.TB, e *harness.Experiment, pts []int) [][]byte {
	t.Helper()
	var recs [][]byte
	for _, p := range pts {
		var rec bytes.Buffer
		rows := evalPoint(t, e, p)
		if err := WriteShard(&rec, Header{Exp: e.ID, Shard: 0, Shards: 1, Quick: true},
			map[int][][]string{p: rows}, ShardStats{Points: 1, Rows: len(rows)}); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec.Bytes())
	}
	return recs
}

// oldFormatRecord is one chunk response exactly as the parent of the
// trailer-shrinking change wrote it (`experiments -agent - -metrics …`
// answering T1 point 0), self-measurement fields and `# metric` lines
// included. Journals full of these exist; they must keep opening.
const oldFormatRecord = `# sweep v1 exp=T1 shard=0/1 quick=true
# point 0
802.11,2.00,1.70,84.8
# stats points=1 rows=1 wall_ns=465373 allocs=386 bytes=159304 events=2155
# metric wlan_medium_fanout_candidates_total 289
# metric wlan_medium_fanout_delivered_total 289
# metric wlan_medium_link_cache_hits_total 289
# metric wlan_medium_link_cache_misses_total 2
# metric wlan_medium_transmissions_total 289
# metric wlan_sim_events_total 2155
# end
`

// A checkpoint written before the trailer shrank must open with nothing
// torn, resume, and merge to the sequential bytes.
func TestOpenCheckpointOldFormatRecord(t *testing.T) {
	e := harness.ByID("T1")
	n := e.Grid(true).N
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(path, []byte(oldFormatRecord), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, done, torn, err := openOne(path, true, e)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(done) != 1 || len(done[0]) != 1 {
		t.Fatalf("old-format journal: torn=%d done=%v, want point 0 intact", torn, done)
	}
	for p := 1; p < n; p++ {
		if err := cp.Append(e.ID, p, evalPoint(t, e, p)); err != nil {
			t.Fatal(err)
		}
	}
	cp.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(oldFormatRecord)) {
		t.Fatal("resuming rewrote the old-format record")
	}
	all, valid, err := parseOne(data, e)
	if err != nil || valid != len(data) {
		t.Fatalf("mixed-format journal: valid=%d/%d err=%v", valid, len(data), err)
	}
	merged, err := Merge(e.Grid(true).Table, n, []map[int][][]string{all})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.CSV(), e.Run(true).CSV(); got != want {
		t.Errorf("table merged from the old-format journal differs from sequential:\n%s\n%s", got, want)
	}
}

func TestParseCheckpointRoundTrip(t *testing.T) {
	e := harness.ByID("T1")
	recs := journalChunks(t, e, []int{0, 1, 2})
	data := bytes.Join(recs, nil)
	done, valid, err := parseOne(data, e)
	if err != nil {
		t.Fatal(err)
	}
	if valid != len(data) {
		t.Errorf("valid = %d, want the whole journal (%d)", valid, len(data))
	}
	if len(done) != 3 {
		t.Errorf("recovered %d points, want 3", len(done))
	}
	for _, p := range []int{0, 1, 2} {
		if len(done[p]) == 0 {
			t.Errorf("point %d has no rows", p)
		}
	}
}

// The crash-safety contract: any truncation of the journal's tail loses at
// most the torn record — never a previously complete one, never loudly.
func TestParseCheckpointTornTailEveryPrefix(t *testing.T) {
	e := harness.ByID("T1")
	recs := journalChunks(t, e, []int{0, 1})
	whole := bytes.Join(recs, nil)
	for cut := len(recs[0]); cut < len(whole); cut++ {
		done, valid, err := parseOne(whole[:cut], e)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantValid := len(recs[0])
		wantPoints := 1
		if cut == len(whole) { // unreachable in this loop; kept for clarity
			wantValid, wantPoints = len(whole), 2
		}
		if valid != wantValid || len(done) != wantPoints {
			t.Fatalf("cut at %d: valid=%d points=%d, want valid=%d points=%d",
				cut, valid, len(done), wantValid, wantPoints)
		}
	}
}

// The corrupt-tail corpus of the satellite task: every shape must recover
// (trusting only the valid prefix) or reject loudly — never panic, never
// silently drop a verified point.
func TestParseCheckpointCorruptTailCorpus(t *testing.T) {
	e := harness.ByID("T1")
	recs := journalChunks(t, e, []int{0, 1})
	good := bytes.Join(recs, nil)

	cases := []struct {
		name       string
		data       []byte
		wantPoints int
		wantValid  int
		wantErr    string
	}{
		{"empty", nil, 0, 0, ""},
		{"truncated last line", good[:len(good)-7], 1, len(recs[0]), ""},
		{"torn point marker", append(append([]byte{}, good...), []byte("# sweep v1 exp=T1 shard=0/1 quick=true\n# poi")...), 2, len(good), ""},
		{"garbage tail", append(append([]byte{}, good...), []byte("\x00\xff garbage")...), 2, len(good), ""},
		// A complete-but-invalid record at the tail (stats trailer only, no
		// header) is a crash artifact too: truncated, not trusted.
		{"stats-trailer-only tail", append(append([]byte{}, good...), []byte("# stats points=1 rows=1 wall_ns=1 allocs=1 bytes=1 events=1\n# end\n")...), 2, len(good), ""},
		// The same stats-trailer-only shape as the whole file: nothing valid,
		// nothing recovered, no error — an empty resume, loudly logged as torn
		// bytes by OpenCheckpoint.
		{"stats-trailer-only file", []byte("# stats points=1 rows=1 wall_ns=1 allocs=1 bytes=1 events=1\n# end\n"), 0, 0, ""},
		// A duplicated chunk is what a re-dispatch race journals: identical
		// rows, tolerated.
		{"duplicated chunk", bytes.Join([][]byte{recs[0], recs[0], recs[1]}, nil), 2, len(recs[0])*2 + len(recs[1]), ""},
		// Corruption before the tail is archive damage, not a crash: loud.
		{"corrupt middle record", bytes.Join([][]byte{recs[0][:len(recs[0])/2], recs[1]}, nil), 0, 0, "corrupt before the tail"},
		// Another sweep's journal must never be absorbed or truncated.
		{"wrong experiment", journalChunks(t, harness.ByID("S1"), []int{0})[0], 0, 0, "belongs to exp=S1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done, valid, err := parseOne(tc.data, e)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(done) != tc.wantPoints || valid != tc.wantValid {
				t.Errorf("points=%d valid=%d, want points=%d valid=%d", len(done), valid, tc.wantPoints, tc.wantValid)
			}
		})
	}
}

// Conflicting duplicates — same point journaled twice with different rows —
// are corruption even at the tail only when an earlier record vouched for
// the point; the loader must reject the conflict loudly when it is not the
// torn tail, and never prefer the later record.
func TestParseCheckpointConflictingDuplicate(t *testing.T) {
	e := harness.ByID("T1")
	recs := journalChunks(t, e, []int{0})
	evil := bytes.Replace(recs[0], []byte(","), []byte("9,"), 1) // perturb first row, keep framing
	data := bytes.Join([][]byte{recs[0], evil, recs[0]}, nil)
	if _, _, err := ParseCheckpoint(data, true, grid(e)); err == nil || !strings.Contains(err.Error(), "journaled twice") {
		t.Fatalf("conflicting duplicate before the tail returned %v, want loud rejection", err)
	}
	// As the trailing record it is a crash artifact: truncated, first
	// record's rows kept.
	done, valid, err := parseOne(bytes.Join([][]byte{recs[0], evil}, nil), e)
	if err != nil {
		t.Fatal(err)
	}
	if valid != len(recs[0]) || len(done) != 1 {
		t.Fatalf("trailing conflict: valid=%d points=%d, want the first record only", valid, len(done))
	}
}

// OpenCheckpoint must physically truncate a torn tail so the next append
// starts at a record boundary — and appends after resume must parse.
func TestOpenCheckpointTruncatesAndAppends(t *testing.T) {
	e := harness.ByID("T1")
	recs := journalChunks(t, e, []int{0, 1, 2})
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	torn := append(append([]byte{}, recs[0]...), recs[1][:len(recs[1])/3]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, done, tornBytes, err := openOne(path, true, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || tornBytes != len(recs[1])/3 {
		t.Fatalf("resume: points=%d torn=%d, want 1 point and %d torn bytes", len(done), tornBytes, len(recs[1])/3)
	}
	// Append two more chunks through the real path and re-open.
	for _, p := range []int{1, 2} {
		if err := cp.Append(e.ID, p, evalPoint(t, e, p)); err != nil {
			t.Fatal(err)
		}
	}
	cp.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	done2, valid, err := parseOne(data, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(done2) != 3 || valid != len(data) {
		t.Fatalf("after resume+append: points=%d valid=%d/%d", len(done2), valid, len(data))
	}
}

func TestOpenCheckpointWrongQuickMode(t *testing.T) {
	e := harness.ByID("T1")
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, journalChunks(t, e, []int{0})[0], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := openOne(path, false, e)
	var me *CheckpointMismatchError
	if !errorsAs(err, &me) {
		t.Fatalf("quick-mode mismatch returned %v, want CheckpointMismatchError", err)
	}
	if me.Path != path {
		t.Errorf("mismatch error path %q, want %q", me.Path, path)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **CheckpointMismatchError) bool {
	for err != nil {
		if me, ok := err.(*CheckpointMismatchError); ok {
			*target = me
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// FuzzParseCheckpoint: whatever bytes a crashed, truncated, or hostile
// journal holds, the parser must recover a valid prefix or reject loudly —
// never panic, and never report trusted bytes it cannot re-parse to the
// same result.
func FuzzParseCheckpoint(f *testing.F) {
	e, e2 := harness.ByID("T1"), harness.ByID("S1")
	grids := map[string]int{e.ID: e.Grid(true).N, e2.ID: e2.Grid(true).N}
	recs := journalChunks(f, e, []int{0, 1})
	good := bytes.Join(recs, nil)
	f.Add(good)
	f.Add(good[:len(good)-7])                                                             // truncated last line
	f.Add(append(append([]byte{}, good...), []byte("# poi")...))                          // torn point marker
	f.Add(bytes.Join([][]byte{recs[0], recs[0]}, nil))                                    // duplicated chunk
	f.Add([]byte("# stats points=1 rows=1 wall_ns=1 allocs=1 bytes=1 events=1\n# end\n")) // stats-trailer-only
	f.Add([]byte("# sweep v1 exp=T1 shard=0/1 quick=true\n# end\n"))
	f.Add([]byte{})
	for _, seed := range shardSeeds() {
		f.Add(seed)
	}
	f.Add(append([]byte(oldFormatRecord), recs[1]...))                                    // mixed-format journal
	f.Add(bytes.Join([][]byte{recs[0], journalChunks(f, e2, []int{0})[0], recs[1]}, nil)) // two experiments, interleaved
	f.Fuzz(func(t *testing.T, data []byte) {
		done, valid, err := ParseCheckpoint(data, true, grids)
		if err != nil {
			return // loud rejection is a valid outcome
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside data of %d", valid, len(data))
		}
		for id, pts := range done {
			n, ours := grids[id]
			if !ours {
				t.Fatalf("recovered points of %q, which is not in the run", id)
			}
			for p := range pts {
				if p < 0 || p >= n {
					t.Fatalf("recovered %s point %d outside grid of %d", id, p, n)
				}
			}
		}
		// The trusted prefix must re-parse to the identical result: the
		// "valid" claim is a promise about resumability, not a guess.
		done2, valid2, err2 := ParseCheckpoint(data[:valid], true, grids)
		if err2 != nil || valid2 != valid || !reflect.DeepEqual(done2, done) {
			t.Fatalf("trusted prefix does not re-parse: valid=%d->%d experiments=%d->%d err=%v",
				valid, valid2, len(done), len(done2), err2)
		}
	})
}
