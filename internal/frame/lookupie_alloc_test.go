package frame

import "testing"

func TestLookupIEZeroAllocCheck(t *testing.T) {
	body := AppendIE(AppendIE(nil, IESSID, []byte("ssid")), IEDSParam, []byte{6})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := LookupIE(body, 3); !ok {
			t.Fatal("missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupIE allocates %v/op", allocs)
	}
}
