package cluster

import (
	"reflect"
	"testing"
)

// FuzzParseRunRequest holds the request parser — the first thing an
// unauthenticated TCP peer or a pipe reaches — to two properties: it never
// panics, and whatever it accepts re-formats through formatRunRequest to a
// line that parses to the same triple.
func FuzzParseRunRequest(f *testing.F) {
	for _, seed := range []string{
		"# run v1 exp=NOPE quick=true points=0",
		"# run v1 exp=S1 quick=true points=999",
		"# run v1 exp=F1 quick=false points=0,3,5",
		"# run v1 exp=T1 quick=true points=none",
		"GET / HTTP/1.1",
		pingLine,
		"# run v1 exp= quick=maybe points=1,,2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		expID, quick, pts, err := parseRunRequest(line)
		if err != nil {
			return
		}
		again := formatRunRequest(expID, quick, pts)
		expID2, quick2, pts2, err := parseRunRequest(again)
		if err != nil {
			t.Fatalf("%q parsed, but its re-formatted form %q does not: %v", line, again, err)
		}
		if expID2 != expID || quick2 != quick || !reflect.DeepEqual(pts2, pts) {
			t.Fatalf("%q -> (%q, %t, %v) re-formats to %q -> (%q, %t, %v)",
				line, expID, quick, pts, again, expID2, quick2, pts2)
		}
	})
}
