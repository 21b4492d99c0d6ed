package sweep

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sync"

	"repro/internal/obs"
)

// A checkpoint file is the append-only journal of one run — one or more
// experiments in one quick mode: every record is one complete WriteShard
// wire-format block (header naming its experiment, point marker + rows, stats
// trailer, "# end" terminator), so a checkpoint is readable with the same
// tools as a shard dump and carries the exact pre-rendered cells the merge
// needs for byte-identity with a sequential run.
//
// Crash safety comes from the framing, not from the writer: records are
// appended with a single write followed by fsync, and a loader never
// trusts the tail — ParseCheckpoint accepts only the longest prefix of
// complete, valid records and reports everything after it as torn. A
// coordinator that dies mid-append therefore loses at most the record it
// was writing; every previously journaled point survives and is skipped on
// resume.

// recordEnd is the record terminator including its newline; a record
// without it is torn by definition.
const recordEnd = endMarker + "\n"

const endMarker = "# end"

// CheckpointMismatchError reports a checkpoint holding a record of another
// run: an experiment this run does not evaluate, or the other quick mode. It
// is deliberately not recoverable-by-truncation: silently overwriting
// another run's verified points would be data loss, so resuming against the
// wrong file must fail loudly.
type CheckpointMismatchError struct {
	Path      string
	Exp       string // the record's
	Quick     bool   // the record's
	WantQuick bool
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("sweep: checkpoint %s belongs to exp=%s quick=%t: not an experiment of this run (quick=%t)",
		e.Path, e.Exp, e.Quick, e.WantQuick)
}

// ParseCheckpoint decodes a checkpoint for a run in the given quick mode
// over grids, the run's experiment ids with their grid sizes. It returns,
// per experiment, the union of completed points across all valid records
// (first record wins on duplicates) and the length in bytes of the trusted
// prefix. A torn or corrupt trailing record — truncated last line, torn
// point marker, stats-trailer inconsistency — is excluded from valid and
// from the point maps, never trusted; the same corruption anywhere before
// the trailing record means the file is not an append-only journal with a
// damaged tail but a damaged archive, and is rejected loudly. A record for
// an experiment outside grids or for the other quick mode is rejected loudly
// wherever it appears (see CheckpointMismatchError). Duplicated records are
// tolerated only when byte-identical (re-dispatch races journal the same
// deterministic rows); conflicting duplicates are corruption and rejected.
func ParseCheckpoint(data []byte, quick bool, grids map[string]int) (done map[string]map[int][][]string, valid int, err error) {
	done = make(map[string]map[int][][]string)
	rest := data
	for len(rest) > 0 {
		recLen := recordLen(rest)
		if recLen < 0 {
			// No terminator in what remains: torn tail.
			break
		}
		rec := rest[:recLen]
		// The record is "trailing" when no further complete record follows:
		// only there is corruption attributable to a crash mid-append.
		trailing := recordLen(rest[recLen:]) < 0
		h, byPoint, _, perr := ParseShard(bytes.NewReader(rec))
		if perr == nil {
			n, ours := grids[h.Exp]
			if !ours || h.Quick != quick {
				return nil, 0, &CheckpointMismatchError{Exp: h.Exp, Quick: h.Quick, WantQuick: quick}
			}
			perr = foldRecord(done, h.Exp, byPoint, n)
		}
		if perr != nil {
			// A crash tears at most a prefix of one WriteShard record, so a
			// failed record containing a second shard header has swallowed a
			// later record's framing: that is damage before the tail even
			// when no complete record follows it. The header can be glued
			// mid-line when the damage cut a row short, so the search is for
			// the literal anywhere past the record's own header at offset 0.
			spansLater := bytes.Contains(rec[1:], []byte("# sweep v1 "))
			if trailing && !spansLater {
				// Corrupt trailing record: detected, truncated, never trusted.
				// Points it named were never verified, so dropping it drops
				// nothing the journal had promised.
				break
			}
			return nil, 0, fmt.Errorf("sweep: checkpoint record at byte %d is corrupt before the tail: %w",
				len(data)-len(rest), perr)
		}
		valid += recLen
		rest = rest[recLen:]
	}
	return done, valid, nil
}

// recordLen returns the length of the first complete record in b (through
// its "# end\n" terminator), or -1 when no terminator remains.
func recordLen(b []byte) int {
	// The terminator must sit at the start of a line; a cell cannot contain
	// '#' at line start (WriteShard rejects it), so a plain search for the
	// newline-delimited marker is exact.
	if bytes.HasPrefix(b, []byte(recordEnd)) {
		return len(recordEnd)
	}
	i := bytes.Index(b, []byte("\n"+recordEnd))
	if i < 0 {
		return -1
	}
	return i + 1 + len(recordEnd)
}

// foldRecord merges one record's points into done[exp], enforcing grid range
// and duplicate consistency; a record that fails either leaves done as it
// was.
func foldRecord(done map[string]map[int][][]string, exp string, byPoint map[int][][]string, n int) error {
	have := done[exp]
	for p, rows := range byPoint {
		if p < 0 || p >= n {
			return fmt.Errorf("sweep: checkpoint point %d outside %s's grid of %d", p, exp, n)
		}
		if prev, dup := have[p]; dup && !slices.EqualFunc(prev, rows, slices.Equal[[]string]) {
			return fmt.Errorf("sweep: checkpoint %s point %d journaled twice with different rows", exp, p)
		}
	}
	if have == nil {
		have = make(map[int][][]string)
		done[exp] = have
	}
	for p, rows := range byPoint {
		if _, dup := have[p]; !dup {
			have[p] = rows
		}
	}
	return nil
}

// Checkpoint journals the completed points of one run to an append-only
// file. All methods are safe for concurrent use (the cluster coordinator
// appends from every worker goroutine).
type Checkpoint struct {
	mu    sync.Mutex
	f     *os.File
	quick bool
}

// OpenCheckpoint opens (creating if absent) the checkpoint journal of one
// run, re-validates every record against the run's quick mode and grids
// (experiment id → grid size), truncates a torn or corrupt trailing record,
// and returns the journal positioned for appending together with the
// completed points it already holds, per experiment. torn reports how many
// bytes of untrusted tail were cut.
func OpenCheckpoint(path string, quick bool, grids map[string]int) (cp *Checkpoint, done map[string]map[int][][]string, torn int, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	done, valid, err := ParseCheckpoint(data, quick, grids)
	if err != nil {
		if me, ok := err.(*CheckpointMismatchError); ok {
			me.Path = path
		}
		return nil, nil, 0, err
	}
	torn = len(data) - valid
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	if torn > 0 {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("sweep: checkpoint: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	return &Checkpoint{f: f, quick: quick}, done, torn, nil
}

// Append journals one verified point of experiment exp: the record is
// rendered in full, written with a single write call, and fsynced before
// Append returns, so a crash can tear at most the record being written —
// exactly the case the loader truncates.
func (cp *Checkpoint) Append(exp string, p int, rows [][]string) error {
	var buf bytes.Buffer
	err := WriteShard(&buf, Header{Exp: exp, Shard: 0, Shards: 1, Quick: cp.quick},
		map[int][][]string{p: rows}, ShardStats{Points: 1, Rows: len(rows)})
	if err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, err := cp.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("sweep: checkpoint append: %w", err)
	}
	if err := cp.f.Sync(); err != nil {
		return fmt.Errorf("sweep: checkpoint sync: %w", err)
	}
	obs.Checkpoint.Fsyncs.Inc()
	obs.Checkpoint.Bytes.Add(uint64(buf.Len()))
	return nil
}

// Close releases the journal file.
func (cp *Checkpoint) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.f.Close()
}
