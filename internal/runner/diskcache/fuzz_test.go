package diskcache

import (
	"bytes"
	"testing"
)

// Any entry whose header parseEntry accepts (other than a legacy JSON
// header, which only ever reads as stale) is exactly what appendEntry writes
// for that header and payload. The seed corpus is testdata/fuzz/FuzzParseEntry.
func FuzzParseEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := parseEntry(data)
		if err != nil || h.Schema == legacySchema {
			return
		}
		if again := appendEntry(nil, h, payload); !bytes.Equal(again, data) {
			t.Fatalf("entry %q re-formats as %q", data, again)
		}
	})
}
