package cluster

import "testing"

// FuzzParseRunRequest holds the request parser — the first thing an
// unauthenticated TCP peer or a pipe reaches — to two properties: it never
// panics, and whatever it accepts re-formats through formatRunRequest to a
// line that parses to the same (experiment, quick, point).
func FuzzParseRunRequest(f *testing.F) {
	for _, seed := range []string{
		"# run v2 exp=NOPE quick=true point=0",
		"# run v2 exp=S1 quick=true point=999",
		"# run v2 exp=F1 quick=false point=-3",
		"# run v1 exp=F1 quick=false points=0,3,5",
		"GET / HTTP/1.1",
		pingLine,
		"# run v2 exp= quick=maybe point=1,2",
		"# run v2 exp=T1 quick=true point=+7",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		expID, quick, p, err := parseRunRequest(line)
		if err != nil {
			return
		}
		again := formatRunRequest(expID, quick, p)
		expID2, quick2, p2, err := parseRunRequest(again)
		if err != nil {
			t.Fatalf("%q parsed, but its re-formatted form %q does not: %v", line, again, err)
		}
		if expID2 != expID || quick2 != quick || p2 != p {
			t.Fatalf("%q -> (%q, %t, %d) re-formats to %q -> (%q, %t, %d)",
				line, expID, quick, p, again, expID2, quick2, p2)
		}
	})
}
