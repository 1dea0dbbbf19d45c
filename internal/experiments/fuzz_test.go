package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// A POST /v1/experiments body goes through the same two steps as in
// server.handleExperiments: decode into a Request, then Opts. Neither may
// panic, and a request Opts accepts names only positive, strictly increasing
// processor counts.
// The seed corpus is testdata/fuzz/FuzzRequestOpts.
func FuzzRequestOpts(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		o, err := req.Opts()
		if err != nil {
			return
		}
		if len(o.Procs) == 0 {
			t.Fatalf("request %+v resolved to no processor counts", req)
		}
		for i, p := range o.Procs {
			if p < 1 {
				t.Fatalf("request %+v resolved to processor count %d", req, p)
			}
			if i > 0 && p <= o.Procs[i-1] {
				t.Fatalf("request %+v resolved to processor counts %v, not strictly increasing", req, o.Procs)
			}
		}
	})
}
